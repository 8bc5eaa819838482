"""Shared helpers: seeded random instances used across the test modules."""

from __future__ import annotations

import itertools
import operator
import random
import sys

from typing import Optional, Sequence

from hypothesis import strategies as st

from sgflow import core
from sgflow.core import (MINUS, PLUS, HypothesisError, MinorResult,
                         SignedGraph, _has_cycle, _tree_order,
                         component_count, edge_connectivity, end_coeffs,
                         is_balanced, is_k_unbalanced, shortest_path,
                         spanning_forest, uncontract, unmet_hypothesis)
from sgflow.decompose import (BASE_SUN, GENERAL, _check,
                              _is_2_connected_edge_set, _spans_and_connected,
                              _sub_degrees, has_two_disjoint_cycles,
                              violating_balanced_cut)
from sgflow.duality import PLANE, PROJECTIVE, EmbeddedGraph
from sgflow.flows import circulation_coeffs
from sgflow.generators import (k4, k4_negative_triangle,
                               random_cubic_3connected)
from sgflow.oracle import satisfy_boundary
from sgflow.reduce import CubicizeResult, UncontractionStep
from sgflow.structures import (NegativeSun, all_cycles, build_negative_sun,
                               cycle_sign, cycles_within, k_closure,
                               order_cycle)


def random_connected_graph(rng: random.Random, n_lo: int = 3, n_hi: int = 8,
                           extra_hi: int = 5, neg_prob: float = 0.4
                           ) -> SignedGraph:
    """Small random connected loopless signed multigraph."""
    n = rng.randrange(n_lo, n_hi + 1)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, MINUS if rng.random() < neg_prob else PLUS))
    for _ in range(rng.randrange(extra_hi + 1)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append((u, v, MINUS if rng.random() < neg_prob else PLUS))
    return SignedGraph(n, tuple(edges))


@st.composite
def signed_multigraphs(draw):
    """n = 1..9 vertices; loops of either sign, parallel edges, isolated
    vertices and disconnected graphs all occur."""
    n = draw(st.integers(1, 9))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                          max_size=14))
    return SignedGraph(n, tuple(edges))


@st.composite
def connected_multigraphs(draw, n_hi: int = 8, extra_hi: int = 8):
    """n = 1..n_hi vertices: a random tree plus at most extra_hi random
    extra edges, loops of either sign and parallel edges among them."""
    n = draw(st.integers(1, n_hi))
    tree = [(draw(st.integers(0, v - 1)), v, PLUS) for v in range(1, n)]
    end = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                          max_size=extra_hi))
    edges = draw(st.permutations(tree + extra))
    return SignedGraph(n, tuple(edges))


@st.composite
def signed_cubic_3connected(draw, n_hi: int = 12):
    """A random cubic 3-connected graph on 4..n_hi vertices with random
    signs."""
    n = draw(st.sampled_from(range(4, n_hi + 1, 2)))
    g = random_cubic_3connected(n, draw(st.randoms(use_true_random=False)))
    return g.with_signs(draw(st.lists(st.sampled_from((PLUS, MINUS)),
                                      min_size=g.m, max_size=g.m)))


def induced_edges(g: SignedGraph, x) -> list[int]:
    """The edges of G[X], loops included, in index order."""
    return [e for e in range(g.m) if set(g.ends(e)) <= x]


def unbalance_small_sides(g: SignedGraph) -> SignedGraph:
    """g with signs flipped until decompose.violating_balanced_cut finds
    no balanced side of a small cut, or m flips are spent: each flip is of
    the least edge that closes a cycle inside the reported side."""
    for _ in range(g.m):
        hit = violating_balanced_cut(g)
        if hit is None:
            break
        inside = induced_edges(g, hit[0])
        tree = set(spanning_forest(g, inside))
        flip = min(e for e in inside if e not in tree)
        g = g.with_signs([-s if e == flip else s
                          for e, (_, _, s) in enumerate(g.edges)])
    return g


def circular_ladder(rungs: int, negative_rim: bool = False) -> SignedGraph:
    """The prism over a cycle of the given length: rim u_i = i, rim
    v_i = rungs + i, rung u_i v_i.  With negative_rim every edge of the u
    rim is negative, so every 4-cycle (square) is negative."""
    sign = MINUS if negative_rim else PLUS
    edges = [(i, (i + 1) % rungs, sign) for i in range(rungs)]
    edges += [(rungs + i, rungs + (i + 1) % rungs, PLUS) for i in range(rungs)]
    edges += [(i, rungs + i, PLUS) for i in range(rungs)]
    return SignedGraph(2 * rungs, tuple(edges))


def joined_prisms(rungs: int) -> SignedGraph:
    """Two copies of circular_ladder(rungs) less vertex 0, with each freed
    neighbour joined to its copy: cubic and 3-connected, with a 3-edge cut
    that has cycles on both sides."""
    prism = circular_ladder(rungs)
    k = prism.n - 1  # vertex v > 0 of the prism is v - 1 in each copy
    half = [(u - 1, v - 1, s) for u, v, s in prism.edges if 0 not in (u, v)]
    freed = [u + v - 1 for u, v, _ in prism.edges if 0 in (u, v)]
    return SignedGraph(2 * k, tuple(
        half + [(u + k, v + k, s) for u, v, s in half]
        + [(w, w + k, PLUS) for w in freed]))


@st.composite
def graphs_with_edge_sets(draw):
    """A signed multigraph and a random subset of its edges."""
    g = draw(signed_multigraphs())
    keep = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    return g, {e for e in range(g.m) if keep[e]}


def cubic_2unbalanced(n: int, seed) -> SignedGraph:
    """The first draw of random_cubic_3connected(n) from a seeded rng that
    is 2-unbalanced."""
    rng = random.Random(seed)
    while True:
        g = random_cubic_3connected(n, rng)
        if is_k_unbalanced(g, 2):  # also skips the balanced draws
            return g


def prime_cubic_instance(n: int, seed) -> SignedGraph:
    """The first draw of cubic_2unbalanced(n) from a seeded rng that meets
    the prime route's hypotheses: two disjoint negative cycles and no
    balanced side of a small cut."""
    rng = random.Random(seed)
    while True:
        g = cubic_2unbalanced(n, rng.random())
        if (has_two_disjoint_cycles(g, want_negative=True) is not None
                and violating_balanced_cut(g) is None):
            return g


def doubled_k4_bridge() -> SignedGraph:
    """Two all-positive K4s with every edge doubled, joined by a bridge
    (n = 8, m = 25).  The bridge leaves no nowhere-zero flow, and the
    search kernel learns that only after branching through one side:
    30 305 free branchings over Z5 and 213 661 over Z6."""
    edges = [(u, v, PLUS) for base in (0, 4)
             for u, v in itertools.combinations(range(base, base + 4), 2)
             for _ in range(2)]
    return SignedGraph(8, tuple(edges + [(3, 4, PLUS)]))


def two_components() -> SignedGraph:
    """K4 with a negative triangle on the even vertices and an all-positive
    K4 on the odd ones: an unbalanced and a balanced component, with their
    vertices interleaved."""
    return SignedGraph(8, tuple(
        (2 * u + side, 2 * v + side, sign)
        for side, g in enumerate((k4_negative_triangle(), k4()))
        for u, v, sign in g.edges))


def host_with_sun(n: int) -> tuple[SignedGraph, NegativeSun]:
    """A negative sun on 2n vertices inside a host where the tips are wired
    into a cycle with one extra negative chord, so that tip-to-tip paths
    of either parity exist outside the sun's central cycle."""
    g, sun = build_negative_sun(n)
    edges = list(g.edges)
    tips = list(range(n, 2 * n))
    for i in range(n):
        edges.append((tips[i], tips[(i + 1) % n], PLUS))
    edges.append((tips[0], tips[n // 2], MINUS))
    return SignedGraph(2 * n, tuple(edges)), sun


def _positive(n: int, pairs) -> SignedGraph:
    return SignedGraph(n, tuple((u, v, PLUS) for u, v in pairs))


# small 3-edge-connected cubic graphs, all edges positive
CUBIC_GRAPHS = {
    "k4": _positive(4, itertools.combinations(range(4), 2)),
    "prism": _positive(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)]),
    "k33": _positive(6, itertools.product(range(3), range(3, 6))),
    "wagner": _positive(8, [(i, (i + 1) % 8) for i in range(8)]
                        + [(i, i + 4) for i in range(4)]),
    "cube": _positive(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4)
                          if v < v ^ b]),
}


def switching_classes(g: SignedGraph):
    """One signature per switching class of g's underlying graph: the
    edges of a spanning forest stay positive and the other edges take
    every sign pattern (two signatures that agree on a spanning tree are
    switching equivalent only if they are equal)."""
    tree = set(spanning_forest(g, range(g.m)))
    cotree = [e for e in range(g.m) if e not in tree]
    for negative in itertools.product((False, True), repeat=len(cotree)):
        signs = [PLUS] * g.m
        for e, neg in zip(cotree, negative):
            if neg:
                signs[e] = MINUS
        yield g.with_signs(signs)


def theorem_instances(g: SignedGraph) -> list[SignedGraph]:
    """The switching classes of g that are 3-edge-connected and
    2-unbalanced, the paper's hypotheses."""
    return [h for h in switching_classes(g)
            if edge_connectivity(h) >= 3 and is_k_unbalanced(h, 2)]


def uncontract_edges(g: SignedGraph, v: int, e: int, f: int) -> SignedGraph:
    """core.uncontract by edges: e, f must be distinct non-loop edges at v."""
    if e == f:
        raise ValueError("edges must differ")
    hs = []
    for ed in (e, f):
        cand = [h for h in (2 * ed, 2 * ed + 1) if g.halfedge_vertex(h) == v]
        if not cand:
            raise ValueError(f"edge {ed} not incident to {v}")
        hs.append(cand[0])
    return uncontract(g, v, hs[0], hs[1])


# -- contraction one edge at a time ------------------------------------------------
# sgflow.core.contract_set as it was before it contracted the set in one
# pass: one edge at a time, each step a new graph with its own index maps,
# composed as it goes, and the leftover positive loops of the set deleted
# last.  contract_set must return the same four fields.

def _reference_switch_at(g: SignedGraph, v: int) -> SignedGraph:
    """Negate the sign of every non-loop edge incident to v."""
    if not (0 <= v < g.n):
        raise ValueError(f"unknown vertex {v}")
    new = []
    for u, w, s in g.edges:
        if (u == v) != (w == v):
            s = -s
        new.append((u, w, s))
    return SignedGraph(g.n, tuple(new))


def _reference_contract(g: SignedGraph, e: int) -> MinorResult:
    """Contract a non-loop edge.

    A negative edge is first made positive by switching at its lower-index
    endpoint; the endpoints are then identified.  Positive loops created by
    the identification are deleted, negative loops are kept.
    """
    if g.is_loop(e):
        raise ValueError("cannot contract a loop")
    parity = [0] * g.n
    if g.sigma(e) == MINUS:
        u, v = g.ends(e)
        parity[min(u, v)] = 1
        g = _reference_switch_at(g, min(u, v))
    u, v = g.ends(e)
    keep, gone = min(u, v), max(u, v)
    vmap: list[Optional[int]] = []
    nxt = 0
    for x in range(g.n):
        if x == gone:
            vmap.append(None)
            continue
        vmap.append(nxt)
        nxt += 1
    vmap[gone] = vmap[keep]
    new_edges = []
    emap: list[Optional[int]] = []
    for i, (a, b, s) in enumerate(g.edges):
        if i == e:
            emap.append(None)
            continue
        na, nb = vmap[a], vmap[b]
        if na == nb and s == PLUS and (a == gone) != (b == gone):
            # positive loop created by the identification
            emap.append(None)
            continue
        emap.append(len(new_edges))
        new_edges.append((na, nb, s))
    return MinorResult(SignedGraph(nxt, tuple(new_edges)), tuple(vmap),
                       tuple(emap), tuple(parity))


def _reference_delete_edges(g: SignedGraph, edge_set) -> MinorResult:
    drop = set(edge_set)
    new_edges = []
    emap: list[Optional[int]] = []
    for e, ed in enumerate(g.edges):
        if e in drop:
            emap.append(None)
        else:
            emap.append(len(new_edges))
            new_edges.append(ed)
    return MinorResult(SignedGraph(g.n, tuple(new_edges)), tuple(range(g.n)),
                       tuple(emap), ())


def reference_contract_set(g: SignedGraph, edge_set) -> MinorResult:
    """Contract every edge of edge_set (G/X).

    Each component of the contracted subgraph is switched so a spanning
    forest of it is all-positive first; remaining edges of the set become
    loops, deleted if positive and kept if negative.
    """
    todo = set(edge_set)
    vmap = list(range(g.n))
    emap: list[Optional[int]] = list(range(g.m))
    parity = [0] * g.n
    cur = g
    while True:
        pick = None
        for e in sorted(todo):
            ne = emap[e]
            if ne is not None and not cur.is_loop(ne):
                pick = e
                break
        if pick is None:
            break
        res = _reference_contract(cur, emap[pick])
        for v in range(g.n):
            if vmap[v] is not None:
                parity[v] ^= res.switch_parity[vmap[v]]
        cur = res.graph
        vmap = [res.vertex_map[x] if x is not None else None for x in vmap]
        emap = [res.edge_map[x] if x is not None else None for x in emap]
        todo.discard(pick)
    # remaining set members are loops now: delete positive, keep negative
    del_loops = set()
    for e in sorted(todo):
        ne = emap[e]
        if ne is not None and cur.sigma(ne) == PLUS:
            del_loops.add(ne)
    if del_loops:
        res = _reference_delete_edges(cur, del_loops)
        cur = res.graph
        vmap = [res.vertex_map[x] if x is not None else None for x in vmap]
        emap = [res.edge_map[x] if x is not None else None for x in emap]
    return MinorResult(cur, tuple(vmap), tuple(emap), tuple(parity))


def random_elem(rng: random.Random, A) -> tuple:
    return tuple(rng.randrange(k) for k in A.factors)


def random_fbar(rng: random.Random, A, m: int) -> list[tuple]:
    return [random_elem(rng, A) for _ in range(m)]


# -- reference group arithmetic and boundary ----------------------------------
# sgflow.groups computes a cyclic group on its one coordinate and sums a
# boundary per coordinate as integers; these tuple-wise forms, the same on
# every group, must give the same tuples.

class ReferenceGroup:
    """Coordinate-wise arithmetic on the tuples of Z_{n_1} x ... x Z_{n_k}."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.zero = (0,) * len(factors)

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a, b):
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def smul(self, k: int, a):
        return tuple((k * x) % n for x, n in zip(a, self.factors))

    def contains(self, a) -> bool:
        return len(a) == len(self.factors) and all(
            0 <= x < n for x, n in zip(a, self.factors))

    def sum(self, items):
        out = self.zero
        for a in items:
            out = self.add(out, a)
        return out


def reference_boundary(g: SignedGraph, f, A) -> list[tuple]:
    """groups.boundary, one edge at a time in the group: each edge adds
    f(e) at its first end and -sigma(e) f(e) at its second."""
    R = ReferenceGroup(A.factors)
    out = [R.zero for _ in range(g.n)]
    for (u, v, sign), x in zip(g.edges, f):
        out[u] = R.add(out[u], x)
        out[v] = R.add(out[v], x if sign == MINUS else R.neg(x))
    return out


# -- exhaustive test oracles ----------------------------------------------------
# Exponential scans kept to check the polynomial routines in sgflow.core.

def brute_frustration_index(g: SignedGraph) -> int:
    """Fewest negative edges over all switchings: switch at every subset of
    the first n-1 vertices (switching the last one too changes nothing)."""
    best = g.m
    for mask in range(1 << max(g.n - 1, 0)):
        count = 0
        for u, v, s in g.edges:
            if (mask >> u & 1) != (mask >> v & 1):
                s = -s
            count += s == MINUS
        best = min(best, count)
    return best


# The frustration index as sgflow.core.min_negative_edges computed it before
# it read the cut-space labels: a sign-parity colouring of g per deletion
# set, as it was then.

def reference_min_negative_edges(g: SignedGraph, budget: int = 2
                                 ) -> Optional[int]:
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    neg_loops = []
    for e, (u, w, s) in enumerate(g.edges):
        if u == w:
            if s == MINUS:
                neg_loops.append(e)
            continue
        adj[u].append((e, w, s))
        adj[w].append((e, u, s))
    for j in range(budget + 1):
        for drop in itertools.combinations(range(g.m), j):
            if reference_balanced_without(adj, neg_loops, drop):
                return j
    return None


def reference_balanced_without(adj: list[list[tuple[int, int, int]]],
                               neg_loops: list[int], drop: tuple[int, ...]
                               ) -> bool:
    """Sign-parity 2-colouring of the graph given by its non-loop adjacency
    (edge, other end, sign) and its negative loops, with `drop` deleted."""
    if any(e not in drop for e in neg_loops):
        return False
    colour = [0] * len(adj)
    for root in range(len(adj)):
        if colour[root]:
            continue
        colour[root] = PLUS
        stack = [root]
        while stack:
            x = stack.pop()
            for e, y, s in adj[x]:
                if e in drop:
                    continue
                want = colour[x] * s
                if not colour[y]:
                    colour[y] = want
                    stack.append(y)
                elif colour[y] != want:
                    return False
    return True


def spy_on_labelling(monkeypatch) -> list[SignedGraph]:
    """The graphs core._cut_labels labels from now on, in order: the spy
    replaces it under every name an sgflow module bound it to."""
    labelled: list[SignedGraph] = []
    cut_labels = core._cut_labels

    def spy(g):
        labelled.append(g)
        return cut_labels(g)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "sgflow"
                and getattr(module, "_cut_labels", None) is cut_labels):
            monkeypatch.setattr(module, "_cut_labels", spy)
    return labelled


# connect's entry check as it was before core.unmet_hypothesis answered both
# hypotheses from one cut labelling: two questions, each labelling g.

def reference_unmet_hypothesis(g: SignedGraph) -> Optional[str]:
    if edge_connectivity(g) < 3:
        return "graph is not 3-edge-connected"
    if not is_k_unbalanced(g, 2):
        return "graph is not 2-unbalanced"
    return None


# sgflow.reduce.cubicize as it was before it extended one labelling of its
# input: every candidate partner is uncontracted and put to connect's entry
# check, each labelling the candidate again.

def _reference_partner(g: SignedGraph, v: int, h_e: int) -> Optional[int]:
    for h in sorted(g.halfedges_at(v)):
        if h != h_e and unmet_hypothesis(uncontract(g, v, h_e, h)) is None:
            return h
    return None


def reference_cubicize(g: SignedGraph) -> CubicizeResult:
    if g.n < 2:
        raise HypothesisError("need at least 2 vertices (single-vertex graphs"
                              " are handled directly by the oracle)")
    deg = g.degrees()
    low = next((v for v in range(g.n) if deg[v] < 3), None)
    if low is not None:
        raise HypothesisError(f"vertex {low} has degree {deg[low]}:"
                              f" graph is not 3-edge-connected")
    history: list[UncontractionStep] = []
    cur = g
    while True:
        v = next((x for x, d in enumerate(cur.degrees()) if d >= 4), None)
        if v is None:
            break
        for h_e in sorted(cur.halfedges_at(v)):
            h_f = _reference_partner(cur, v, h_e)
            if h_f is not None:
                break
        else:
            raise AssertionError("no valid uncontraction pair at vertex"
                                 f" {v}: preconditions violated?")
        history.append(UncontractionStep(v, h_e, h_f, cur.n, cur.m))
        cur = uncontract(cur, v, h_e, h_f)
    return CubicizeResult(cur, history)


# sgflow.structures.fundamental_cycle as it was before it climbed a rooted
# tree: a breadth-first search over the tree per edge.

def reference_fundamental_cycle(g: SignedGraph, tree, e: int) -> list[int]:
    if g.is_loop(e):
        return [e]
    u, v = g.ends(e)
    hit = shortest_path(g, tree, (u,), (v,))
    if hit is None:
        raise ValueError("edge endpoints in different tree components")
    return hit[1][::-1] + [e]


def brute_edge_connectivity(g: SignedGraph) -> int:
    """Fewest edges across any bipartition of the vertices; g.m + 1 for a
    single vertex, 0 for no vertices."""
    if g.n <= 1:
        return g.m + 1 if g.n == 1 else 0
    best = g.m
    for mask in range(1, 1 << (g.n - 1)):
        best = min(best, sum((mask >> u & 1) != (mask >> v & 1)
                             for u, v, _ in g.edges))
    return best


def delta(g: SignedGraph, side) -> list[int]:
    """delta(X): edges with exactly one endpoint in X.  Loops never qualify."""
    s = set(side)
    return [e for e, (u, v, _) in enumerate(g.edges) if (u in s) != (v in s)]


def switch_on_set(g: SignedGraph, side) -> SignedGraph:
    """Switch at every vertex of `side`; exactly delta(side) changes sign."""
    s = set(side)
    new = []
    for u, w, sg in g.edges:
        if (u in s) != (w in s):
            sg = -sg
        new.append((u, w, sg))
    return SignedGraph(g.n, tuple(new))


def relabelled(g: SignedGraph, rng: random.Random) -> SignedGraph:
    """g with its vertices and edges permuted, random edges stored the other
    way round, and a switching at a random vertex set."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], s) for u, v, s in g.edges]
    rng.shuffle(edges)
    edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s)
             for u, v, s in edges]
    return switch_on_set(SignedGraph(g.n, tuple(edges)),
                         [v for v in range(g.n) if rng.random() < 0.5])


# The references below read the default orientation half-edge by half-edge,
# independently of sgflow.core.end_coeffs, which states it per edge end.

def default_tau(g: SignedGraph):
    """The default orientation as a direction per half-edge, +1 where the
    edge leaves its vertex: every edge leaves its first end (half-edge 2e),
    and a negative edge also leaves its second (2e + 1)."""
    return lambda h: PLUS if h % 2 == 0 else -g.sigma(h // 2)


def _half_at(g: SignedGraph, e: int, v: int) -> int:
    """The half-edge of e at v (e must not be a loop)."""
    u, w = g.ends(e)
    if u == v:
        return 2 * e
    if w == v:
        return 2 * e + 1
    raise ValueError(f"edge {e} not incident to vertex {v}")


# The vertex-subset scans that sgflow.core.small_cuts replaced, as they were
# but for the vertex limit they checked; violating_balanced_cut and
# is_cyclically_k_edge_connected must return what they return.

def reference_violating_balanced_cut(g: SignedGraph):
    for mask in range(1, 1 << g.n):
        x = {v for v in range(g.n) if mask >> v & 1}
        if len(x) < 2 or len(x) == g.n:
            continue
        cut = delta(g, x)
        if len(cut) not in (3, 4):
            continue
        if len(cut) == 4 and len(x) < 3:
            continue
        inside = induced_edges(g, x)
        if not is_balanced(g, inside).balanced:
            continue
        if len(cut) == 3:
            return frozenset(x), 3
        if reference_plane_with_degree_2_outside(g, x, inside):
            return frozenset(x), 4
    return None


def reference_plane_with_degree_2_outside(g: SignedGraph, x, inside) -> bool:
    """A plane embedding of G[X] with its degree-2 vertices on the outer
    face, by networkx: planarity after adding an apex joined to those
    vertices."""
    degree = dict.fromkeys(x, 0)
    for e in inside:
        for v in g.ends(e):
            degree[v] += 1
    apex = -1
    return reference_is_planar(
        [*x, apex], [g.ends(e) for e in inside]
        + [(apex, v) for v in x if degree[v] == 2])


def reference_is_planar(vertices, edges) -> bool:
    """networkx's planarity test on the multigraph, loops included."""
    import networkx as nx

    nxg = nx.MultiGraph()
    nxg.add_nodes_from(vertices)
    nxg.add_edges_from(edges)
    ok, _ = nx.check_planarity(nxg)
    return ok


def reference_blocks(n: int, pairs) -> list:
    """networkx's blocks of three or more vertices of the multigraph on
    0..n-1 with the given vertex pairs as edges, loops left out, each as
    its sorted vertices and its sorted edges (u < v), in sorted order."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from((u, v) for u, v in pairs if u != v)
    return sorted((sorted(vs), sorted(tuple(sorted(e)) for e in es))
                  for vs, es in zip(nx.biconnected_components(nxg),
                                    nx.biconnected_component_edges(nxg))
                  if len(vs) >= 3)


def reference_cut_side(g: SignedGraph, cut, order, up) -> frozenset[int]:
    """The side without vertex 0 of a cut of a connected g, as
    core.small_cuts found it before sides were bit masks: the vertices
    whose path from vertex 0 in the _cut_labels tree crosses the cut an
    odd number of times, by one walk down the tree."""
    odd = [False] * g.n
    for x in order[1:]:
        e = up[x]
        odd[x] = odd[g.other_end(e, x)] != (e in cut)
    return frozenset(v for v in range(g.n) if odd[v])


def reference_is_cyclically_k_edge_connected(g: SignedGraph, k: int) -> bool:
    """No edge-cut of size < k separating two cycles (exhaustive bipartition scan)."""
    for mask in range(1, 1 << (g.n - 1)):
        side = {v for v in range(g.n - 1) if mask >> v & 1}
        rest = set(range(g.n)) - side
        cut = delta(g, side)
        if len(cut) >= k:
            continue
        if _has_cycle(g, side) and _has_cycle(g, rest):
            return False
    return True


def brute_boundaries(g: SignedGraph, domains, zero, add, neg) -> set:
    """Boundaries in the default orientation of every map with f(e) in
    domains[e].

    Edge by edge, every value of the edge is added to every boundary the
    earlier edges reach; maps that agree on the boundary so far are merged,
    which keeps the set small without skipping any map.  The search order,
    pruning and forcing of sgflow.oracle play no part here.
    """
    tau = default_tau(g)
    reach = {(zero,) * g.n}
    for e in range(g.m):
        step = []
        for x in domains[e]:
            d = {}
            for h in (2 * e, 2 * e + 1):
                v = g.halfedge_vertex(h)
                d[v] = add(d.get(v, zero), x if tau(h) == 1 else neg(x))
            step.append(d)
        nxt = set()
        for b in reach:
            for d in step:
                bl = list(b)
                for v, y in d.items():
                    bl[v] = add(bl[v], y)
                nxt.add(tuple(bl))
        reach = nxt
    return reach


# -- A-boundaries, per component ------------------------------------------------
# A boundary's sum over a component K of the graph lies in 2A when K is
# unbalanced, and its sum switched to all-positive is zero when K is
# balanced.  These forms find the components and switchings by a search of
# their own and compute in ReferenceGroup; sgflow.oracle reads both off its
# plan and must accept, enumerate and draw the same boundaries.

def reference_switchings(g: SignedGraph) -> list:
    """The components of g in the order of their last vertices, each as
    its vertices in increasing order and a switching s (vertex -> +-1)
    under which every edge of it is positive, or None if it is
    unbalanced (a negative loop included)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, w, sign in g.edges:
        adj[u].append((w, sign))
        adj[w].append((u, sign))
    s: dict[int, int] = {}
    out = []
    for root in range(g.n):
        if root in s:
            continue
        s[root], stack, vertices, balanced = 1, [root], [root], True
        while stack:
            x = stack.pop()
            for y, sign in adj[x]:
                if y not in s:
                    s[y] = s[x] * sign
                    vertices.append(y)
                    stack.append(y)
                elif s[y] != s[x] * sign:
                    balanced = False
        vertices.sort()
        out.append((vertices, {v: s[v] for v in vertices} if balanced
                    else None))
    return sorted(out, key=lambda comp: comp[0][-1])


def reference_is_A_boundary(g: SignedGraph, A, beta) -> bool:
    """Whether beta sums into 2A on every unbalanced component of g and
    to zero, switched, on every balanced one."""
    R = ReferenceGroup(A.factors)
    doubled = {R.add(a, a) for a in A.elements()}
    for vertices, s in reference_switchings(g):
        if s is None:
            if R.sum(beta[v] for v in vertices) not in doubled:
                return False
        elif R.sum(beta[v] if s[v] > 0 else R.neg(beta[v])
                   for v in vertices) != R.zero:
            return False
    return True


def reference_complete_boundary(g: SignedGraph, A, head, sums) -> list:
    """The A-boundary with the values head at the vertices that are not
    the last of their component, in vertex order, and with the sums given
    by sums over the unbalanced components, in the order of their last
    vertices: each last vertex is solved for."""
    R = ReferenceGroup(A.factors)
    comps = reference_switchings(g)
    last = {vertices[-1] for vertices, _ in comps}
    beta: list = [None] * g.n
    values, targets = iter(head), iter(sums)
    for v in range(g.n):
        if v not in last:
            beta[v] = next(values)
    for vertices, s in comps:
        *rest, t = vertices
        if s is None:
            beta[t] = R.sub(next(targets), R.sum(beta[v] for v in rest))
        else:  # s(t) beta(t) cancels the switched sum over the rest
            x = R.neg(R.sum(beta[v] if s[v] > 0 else R.neg(beta[v])
                            for v in rest))
            beta[t] = x if s[t] > 0 else R.neg(x)
    return beta


def reference_boundary_shape(g: SignedGraph) -> tuple[int, int]:
    """(vertices that are not the last of their component, unbalanced
    components): how many values and sums an A-boundary of g is free in."""
    comps = reference_switchings(g)
    return g.n - len(comps), sum(s is None for _, s in comps)


def reference_boundaries(g: SignedGraph, A):
    """Every A-boundary of g, zero first, in the order sgflow.oracle's
    exact mode names its witness: the free values in lexicographic order,
    and for each the unbalanced components' sums, through 2A in order."""
    free, unbalanced = reference_boundary_shape(g)
    elems = sorted(A.elements())
    doubled = sorted({A.add(a, a) for a in elems})
    for head in itertools.product(elems, repeat=free):
        for sums in itertools.product(doubled, repeat=unbalanced):
            yield reference_complete_boundary(g, A, head, sums)


def reference_is_A_connected(g: SignedGraph, A) -> tuple:
    """(status, witness_beta, checked) of exact A-connectivity by one
    boundary search per A-boundary, in reference_boundaries order: the
    first boundary no nowhere-zero map satisfies is the witness."""
    count = 0
    for beta in reference_boundaries(g, A):
        count += 1
        if satisfy_boundary(g, A, beta) is None:
            return "no", beta, count
    return "yes", None, count


def reference_sampled_is_A_connected(g: SignedGraph, A, samples: int,
                                     seed: int) -> tuple:
    """(status, checked, witness_beta, witness_fbar) of sampled
    A-connectivity by one satisfy_boundary call per sample, each planning
    its own search: the same seeded (beta, fbar) pairs in the same order as
    sgflow.oracle.is_A_connected, which plans once per call.  A pair draws
    the free values in vertex order, then a sum from 2A per unbalanced
    component, then fbar."""
    rng = random.Random(seed)
    elems = sorted(A.elements())
    doubled = sorted({A.add(a, a) for a in A.elements()})
    free, unbalanced = reference_boundary_shape(g)
    for i in range(samples):
        head = [rng.choice(elems) for _ in range(free)]
        sums = [rng.choice(doubled) for _ in range(unbalanced)]
        beta = reference_complete_boundary(g, A, head, sums)
        fbar = [rng.choice(elems) for _ in range(g.m)]
        if satisfy_boundary(g, A, beta, fbar=fbar) is None:
            return "no", i + 1, beta, fbar
    return "sampled-yes", samples, None, None


# The search kernel as it was before it planned its edge order once per call
# and ran on element codes: it scans for the next edge at every node and
# computes with group elements as tuples.  It orders the edges breadth first,
# as the kernel does, but tries every value of every edge: it knows nothing
# of the kernel's sign symmetry on zero boundaries, so it checks that rule
# too.  Like the kernel, it leaves positive loops out of its order.
# The kernel (sgflow.oracle._walk on sgflow.oracle._plan) must return the same
# lists under the default orientation.

REFERENCE_INTEGERS = (0, operator.add, operator.sub, operator.mul,
                      lambda c, r: [] if r % c else [r // c])


def reference_group_arithmetic(A) -> tuple:
    def solve(c: int, r):
        if c == 1:
            return [r]
        if c == -1:
            return [A.neg(r)]
        r = r if c > 0 else A.neg(r)
        return [x for x in A.elements() if A.add(x, x) == r]

    return (A.zero, A.add, A.sub, A.smul, solve)


def reference_search(g: SignedGraph, edges: Sequence[int],
                     domains: Sequence[Sequence], beta: Sequence,
                     ar: tuple) -> Optional[list]:
    """Values f(e) in domains[e], for the edges listed (in increasing
    order), whose boundary in the default orientation is beta, edges not listed carrying
    nothing; None if there are none.  The returned list is indexed by edge
    and holds None for edges not listed.

    The vertices are placed in breadth-first order over a spanning forest
    of the edges, one tree at a time from the least vertex it holds, each
    vertex taking its forest edges in increasing order.  The edges go in
    order of the place of their later end, then of their earlier end, then
    of their index.  The next edge is the first unassigned one with an
    endpoint where it is the last open edge, else the first unassigned one.
    Its candidates are the values every such endpoint forces, in solve
    order, that its domain holds; or, with no such endpoint, its domain in
    order.  An edge whose coefficients are all 0 (a positive loop) is left
    out of the order and, once the others are found, takes the first
    value of its domain; with an empty domain there is no solution.
    """
    zero, add, sub, mul, solve = ar
    tau = default_tau(g)
    # coefficient of edge e at vertex v: sum of tau over its half-edges at v
    coeff: list[dict[int, int]] = [{} for _ in range(g.m)]
    remaining = [0] * g.n  # open incident edges per vertex (loop counts once)
    idle = []
    for e in edges:
        c = coeff[e]
        for h in (2 * e, 2 * e + 1):
            v = g.halfedge_vertex(h)
            c[v] = c.get(v, 0) + tau(h)
        if not any(c.values()):
            idle.append(e)
            continue
        for v in c:
            remaining[v] += 1
    residual = list(beta)
    f: list = [None] * g.m
    tree = sorted(spanning_forest(g, edges))
    place: dict[int, int] = {}  # breadth-first place of each vertex
    for root in range(g.n):
        if root in place:
            continue
        place[root] = len(place)
        queue = [root]
        for x in queue:
            for e in tree:
                u, v = g.ends(e)
                y = v if u == x else u if v == x else None
                if y is not None and y not in place:
                    place[y] = len(place)
                    queue.append(y)
    order = sorted(set(edges) - set(idle),
                   key=lambda e: (max(place[v] for v in g.ends(e)),
                                  min(place[v] for v in g.ends(e)), e))

    def candidates(e: int) -> Sequence:
        """Values compatible with every saturated endpoint of e."""
        cands = None
        for v, c in coeff[e].items():
            if remaining[v] != 1:
                continue
            vals = solve(c, residual[v])
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

    if not dfs(0) or not all(domains[e] for e in idle):
        return None
    for e in idle:
        f[e] = domains[e][0]
    return f


# The planned kernel as it was before its steps were typed
# (sgflow.oracle._plan and _walk): every step loops over the solutions each
# saturated end offers, intersects them, and tests each candidate, free ones
# too, against a set it builds per walk; every step changes both ends'
# residuals.  A free step also keeps only the values that every balanced
# part it closes allows (the closing rule of sgflow.oracle._walk), found by
# a breadth-first search over the open edges at every depth and tested one
# value at a time.  reference_walk counts its free branchings, so the typed
# kernel can be held to the same effort: it must return the same list,
# answer within that many, and stop one short of it.

def reference_group_codes(A) -> tuple:
    """(code, elem, terms, reduce, solve) of sgflow.oracle's element codes,
    with solve[c] mapping a residual to every x with c x = r, in element
    order, for every nonzero c."""
    reduce = [0]
    weights: list[int] = []
    size = 1
    for n in reversed(A.factors):
        reduce = [r + (d % n) * size for d in range(2 * n) for r in reduce]
        weights.insert(0, size)
        size *= 2 * n
    elems = list(A.elements())
    code = {a: sum(x * w for x, w in zip(a, weights)) for a in elems}
    terms, solve = {0: (0,) * size}, {}
    for c in (-2, -1, 1, 2):
        row = [0] * size
        sols: list[tuple[int, ...]] = [()] * size
        for a in elems:
            row[code[a]] = code[A.smul(-c, a)]
            r = code[A.smul(c, a)]
            sols[r] = sols[r] + (code[a],)
        terms[c], solve[c] = tuple(row), tuple(sols).__getitem__
    return code, {x: a for a, x in code.items()}, terms, tuple(reduce), solve


def reference_plan(g: SignedGraph, edges: Sequence[int], codes: tuple
                   ) -> tuple:
    """(m, bare, idle, steps, reduce, neg): per depth the edge, the two
    (vertex, terms row) pairs it changes (padded with a spare slot n), the
    (vertex, solve) pairs of its saturated ends, found by rescanning the
    unplanned edges at every depth, and, with no saturated end, the
    (switching, terms row of a) pairs of the parts it closes
    (`reference_closed_parts`)."""
    _code, _elem, terms, reduce, solve = codes
    coeff = {e: end_coeffs(g, e) for e in edges}
    idle = [e for e in edges if not coeff[e]]
    remaining = [0] * g.n
    for c in coeff.values():
        for v in c:
            remaining[v] += 1
    bare = [v for v in range(g.n) if not remaining[v]]
    bfs, _ = _tree_order(g, spanning_forest(g, edges), range(g.n))
    place = {v: i for i, v in enumerate(bfs)}

    def later_end_first(e: int) -> tuple[int, int, int]:
        a, b = place[g.edges[e][0]], place[g.edges[e][1]]
        return max(a, b), min(a, b), e

    unplanned = sorted((e for e in edges if coeff[e]), key=later_end_first)
    steps = []
    while unplanned:
        i = next((i for i, e in enumerate(unplanned)
                  if 1 in map(remaining.__getitem__, coeff[e])), 0)
        e = unplanned.pop(i)
        saturated = [(v, c) for v, c in coeff[e].items() if remaining[v] == 1]
        for v in coeff[e]:
            remaining[v] -= 1
        (u, cu), (w, cw) = (list(coeff[e].items()) + [(g.n, 0)])[:2]
        steps.append((e, u, terms[cu], w, terms[cw],
                      [(v, solve[c]) for v, c in saturated], []))
    for d, step in enumerate(steps):
        if not step[5]:
            step[6].extend((sorted(s.items()), terms[a]) for s, a in
                           reference_closed_parts(g, step[0], [
                               later[0] for later in steps[d + 1:]]))
    return g.m, bare, idle, steps, reduce, terms[1]


def reference_closed_parts(g: SignedGraph, e: int, open_edges
                           ) -> list[tuple[dict[int, int], int]]:
    """(s, a) for each balanced component K of the open edges that holds
    an end of e, found breadth first with s a switching of K (s(u) s(v) =
    sigma on each edge of K, and no negative loop in K), where a, the sum
    of s(v) c_v(e) over e's ends v in K, is not 0."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for f in open_edges:
        u, v, sign = g.edges[f]
        adj.setdefault(u, []).append((v, sign))
        if u != v:
            adj.setdefault(v, []).append((u, sign))
    parts = []
    for end in dict.fromkeys(g.ends(e)):
        if any(end in s for s, _a in parts):
            continue
        s, balanced, queue = {end: 1}, True, [end]
        for x in queue:
            for y, sign in adj.get(x, ()):
                if y not in s:
                    s[y] = s[x] * sign
                    queue.append(y)
                elif s[y] != s[x] * sign:  # a negative loop, or a cycle
                    balanced = False
        a = sum(s[v] * c for v, c in end_coeffs(g, e).items() if v in s)
        parts.append((s, a if balanced else 0))
    return [(s, a) for s, a in parts if a]


def reference_walk(plan: tuple, domains: Sequence[Sequence[int]],
                   beta: Sequence[int]) -> tuple[Optional[list], int]:
    """(f, free branchings): sgflow.oracle._walk's answer on code lists,
    with no budget, and how often it branched on an edge no end forces."""
    m, bare, idle, steps, reduce, neg = plan
    if any(beta[v] for v in bare) or not all(domains[e] for e in idle):
        return None, 0
    walk = []
    allowed: dict[int, set] = {}
    for step in steps:
        dom = domains[step[0]]
        if id(dom) not in allowed:
            allowed[id(dom)] = set(dom)
        walk.append((*step, dom, allowed[id(dom)]))
    if walk and not any(beta) and not walk[0][5]:
        if all(neg[x] in ok for ok in allowed.values() for x in ok):
            *head, dom, ok = walk[0]
            rank = {x: i for i, x in enumerate(dom)}
            walk[0] = (*head, [x for x in dom if rank[x] <= rank[neg[x]]], ok)
    residual = list(beta) + [0]
    f: list = [None] * m
    branchings = 0

    def dfs(d: int) -> bool:
        nonlocal branchings
        if d == len(walk):
            return True
        e, u, cu, w, cw, forcing, closing, dom, ok = walk[d]
        cands = None
        for v, sol in forcing:
            vals = sol(residual[v])
            cands = vals if cands is None else [x for x in cands if x in vals]
        if cands is None:
            cands = dom
            branchings += 1
        for signs, row in closing:  # a x = S for the sum S of s(v) r(v)
            total = 0
            for v, sv in signs:
                total = reduce[total + (residual[v] if sv > 0
                                        else neg[residual[v]])]
            cands = [x for x in cands if not reduce[total + row[x]]]
        ru, rw = residual[u], residual[w]
        for x in cands:
            if x not in ok:
                continue
            residual[u] = reduce[ru + cu[x]]
            residual[w] = reduce[rw + cw[x]]
            if dfs(d + 1):
                f[e] = x
                return True
        residual[u], residual[w] = ru, rw
        return False

    if not dfs(0):
        return None, branchings
    for e in idle:
        f[e] = domains[e][0]
    return f, branchings


def reference_k_closure(g: SignedGraph, seed, k: int
                        ) -> tuple[frozenset[int], list]:
    """structures.k_closure as it was with the absorbed edges held as a
    set: (closure, steps), scanning the positive cycles shortest first
    until a whole pass absorbs nothing."""
    positive = [c for c in all_cycles(g) if c.sign == PLUS]
    cur = set(seed)
    steps = []
    changed = True
    while changed:
        changed = False
        for c in positive:
            missing = c.edge_set - cur
            if 1 <= len(missing) <= k:
                cur |= missing
                steps.append((c, frozenset(missing)))
                changed = True
    return frozenset(cur), steps


def reference_cycles_within(g: SignedGraph, edges) -> list:
    """The cycles of g inside an edge set, by brute force: every subset of
    the set that order_cycle accepts, sorted by (length, edges)."""
    es = sorted(set(edges))
    out = []
    for size in range(1, len(es) + 1):
        for sub in itertools.combinations(es, size):
            try:
                out.append(order_cycle(g, sub))
            except ValueError:
                pass
    out.sort(key=lambda c: (len(c), c.edges))
    return out


def reference_has_two_disjoint_cycles(g: SignedGraph,
                                      want_negative: bool = False):
    """The first pair of vertex-disjoint cycles (both negative with
    want_negative) among all pairs of all_cycles, else None: the pairing
    that decompose.has_two_disjoint_cycles replaced."""
    cycles = [c for c in all_cycles(g)
              if not want_negative or c.sign == MINUS]
    for c1, c2 in itertools.combinations(cycles, 2):
        if not set(c1.vertices) & set(c2.vertices):
            return c1, c2
    return None


def reference_collision_support(g: SignedGraph, base, b1) -> set[int]:
    """The prime route's 3-flow support built per collision edge e from
    the cycles of base + e: the positive cycle through e if there is one,
    else the cycle through e XOR the base's negative cycle."""
    base = set(base)
    base_cycle = next(c for c in reference_cycles_within(g, base)
                      if c.sign == MINUS)
    support: set[int] = set()
    for e in b1:
        through = [c for c in reference_cycles_within(g, base | {e})
                   if e in c.edge_set]
        pos = [c for c in through if c.sign == PLUS]
        if pos:
            support ^= set(pos[0].edge_set)
        else:
            support ^= set(through[0].edge_set) ^ set(base_cycle.edge_set)
    return support


def random_connected_base(g: SignedGraph, rng: random.Random
                          ) -> Optional[set[int]]:
    """A random spanning tree of connected g plus a random edge that closes
    a negative cycle with it, or None if g is balanced."""
    order = list(range(g.m))
    rng.shuffle(order)
    tree = spanning_forest(g, order)
    closing = [x for x in order if x not in tree
               and not is_balanced(g, tree + [x]).balanced]
    return set(tree) | {closing[0]} if closing else None


def _reference_walk(g: SignedGraph, tau, edges, start: int,
                    kappa: int) -> tuple[list[int], int]:
    """Coefficients along the walk from start through edges that keep the
    boundary zero at every inner vertex, kappa on the first edge, and the
    vertex where the walk ends."""
    out = [kappa]
    v = g.other_end(edges[0], start)
    for prev, e in zip(edges, edges[1:]):
        kappa = -tau(_half_at(g, prev, v)) * tau(_half_at(g, e, v)) * kappa
        out.append(kappa)
        v = g.other_end(e, v)
    return out, v


def _reference_open_cycle(g: SignedGraph, tau, c, v: int) -> dict[int, int]:
    """Walk the cycle from v with +1 on its edge leaving v; a negative
    cycle leaks +-2 at v."""
    j = c.vertices.index(v)
    edges = c.edges[j:] + c.edges[:j]
    return dict(zip(edges, _reference_walk(g, tau, edges, v, 1)[0]))


def _reference_leak_at(g: SignedGraph, tau, coeffs: dict[int, int],
                       v: int) -> int:
    return sum(tau(h) * c for e, c in coeffs.items()
               for h in (2 * e, 2 * e + 1) if g.halfedge_vertex(h) == v)


def _reference_barbell_coeffs(g: SignedGraph, tau, c1, c2, u1: int, path,
                              u2: int) -> dict[int, int]:
    """+-1 on the two negative cycles and +-2 on the path between them,
    with +1 on c1's edge leaving u1, by cancelling each cycle's leak."""
    w = _reference_open_cycle(g, tau, c1, u1)
    leak1 = _reference_leak_at(g, tau, w, u1)
    assert abs(leak1) == 2
    if path:
        kappa, end = _reference_walk(g, tau, path, u1,
                                     -leak1 * tau(_half_at(g, path[0], u1)))
        assert end == u2
        w.update(zip(path, kappa))
        t = tau(_half_at(g, path[-1], u2)) * kappa[-1]
    else:
        assert u1 == u2
        t = leak1
    w2 = _reference_open_cycle(g, tau, c2, u2)
    leak2 = _reference_leak_at(g, tau, w2, u2)
    s = -t // leak2
    assert abs(leak2) == 2 and s * leak2 + t == 0 and abs(s) == 1
    w.update((e, s * c) for e, c in w2.items())
    assert all(_reference_leak_at(g, tau, w, v) == 0 for v in range(g.n))
    return w


def reference_flow_coeffs_through(g: SignedGraph, pool, required
                                  ) -> dict[int, int]:
    """Zero-boundary integer coefficients inside pool, nonzero on every
    required edge, by scanning pool's cycles: the first positive cycle
    through them, else the first pair of negative cycles, sharing at most
    one vertex, whose barbell covers them; the scan that
    flows.circuit_coeffs replaced."""
    tau = default_tau(g)
    pool = set(pool)
    req = set(required)
    cycles = cycles_within(g, pool)
    for c in cycles:
        if c.sign == PLUS and req <= c.edge_set:
            return circulation_coeffs(g, c)
    neg = [c for c in cycles if c.sign == MINUS]
    for c1, c2 in itertools.combinations(neg, 2):
        shared = set(c1.vertices) & set(c2.vertices)
        if c1.edge_set & c2.edge_set or len(shared) > 1:
            continue
        if shared:
            u1 = u2 = min(shared)
            path = []
        else:
            hit = reference_connecting_path(g, pool, c1, c2)
            if hit is None:
                continue
            u1, path, u2 = hit
        if req <= c1.edge_set | c2.edge_set | set(path):
            return _reference_barbell_coeffs(g, tau, c1, c2, u1, path, u2)
    raise ValueError("no positive cycle or barbell through the required"
                     " edges inside the pool")


def reference_is_cubic_3connected(g: SignedGraph) -> bool:
    """Cubic, at least 4 vertices, and no vertex pair whose removal
    disconnects the rest: the vertex form of 3-connectivity, one
    component count per pair (O(n^2 m))."""
    if g.n < 4 or any(g.degree(v) != 3 for v in range(g.n)):
        return False
    return all(len(components(g, skip_vertices={u, v})) == 1
               for u, v in itertools.combinations(range(g.n), 2))


# -- connectivity by depth-first search ------------------------------------------
# The DFS that sgflow used before every edge-set question went through the
# union-find (core.spanning_forest), and the edge-set helpers of
# sgflow.decompose as they were then: each builds the edge set as its own
# graph and runs the DFS over all of g's vertices.  sgflow.core.component_count,
# sgflow.decompose._is_2_connected_edge_set and improving_path must agree.

def components(g: SignedGraph, skip_vertices=()) -> list[set[int]]:
    """Vertex sets of the components of g minus skip_vertices (and the
    edges at them), by depth-first search."""
    skip_v = set(skip_vertices)
    seen: set[int] = set()
    comps = []
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)
                                             if v not in skip_v}
    for e, (u, w, _) in enumerate(g.edges):
        if u in skip_v or w in skip_v:
            continue
        adj[u].append((e, w))
        adj[w].append((e, u))
    for s in adj:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for _, y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def edge_subgraph(g: SignedGraph, es) -> SignedGraph:
    """The edge set viewed as its own signed graph (vertices = the ends),
    keeping g's vertex indexing so results translate back directly."""
    keep = set(es)
    return SignedGraph(g.n, tuple(ed for e, ed in enumerate(g.edges)
                                  if e in keep))


def _edge_subgraph_vertices(g: SignedGraph, es) -> set[int]:
    out = set()
    for e in es:
        u, v = g.ends(e)
        out.add(u)
        out.add(v)
    return out


def reference_is_2_connected_edge_set(g: SignedGraph, es) -> bool:
    es = set(es)
    verts = _edge_subgraph_vertices(g, es)
    if len(verts) < 3:
        # a digon (two parallel edges) counts as 2-connected; a single
        # edge or nothing does not
        pairs = {}
        for e in es:
            key = tuple(sorted(g.ends(e)))
            pairs[key] = pairs.get(key, 0) + 1
        return any(c >= 2 for c in pairs.values())
    sub = edge_subgraph(g, es)
    if len([c for c in components(sub) if any(v in verts for v in c)]) != 1:
        return False
    for v in verts:
        comps = components(sub, skip_vertices={v})
        if len([c for c in comps if c & verts]) > 1:
            return False
    return True


def reference_check_working_partition(g: SignedGraph, wp, mode: str,
                                      want_sign) -> None:
    """decompose.check_working_partition as it was before it read the
    partition's witnesses: every invariant re-derived from A, B and C
    alone, with the same tags in the same order."""
    _check(wp.a | wp.b | wp.c == set(range(g.m)), "partition does not cover E")
    _check(not (wp.a & wp.b or wp.a & wp.c or wp.b & wp.c), "parts overlap")
    _check(_is_2_connected_edge_set(g, wp.a | wp.b), "(a) A+B not 2-connected")
    if wp.c:
        degs = _sub_degrees(g, wp.c)
        _check(component_count(g, wp.c, degs) == 1, "(b) C disconnected")
        _check(all(d in (1, 3) for d in degs.values()), "(b) C degree not in {1,3}")
        if mode in (BASE_SUN, GENERAL):
            _check(not is_balanced(g, wp.c).balanced, "(b) C balanced")
    _check(_spans_and_connected(g, wp.a | wp.c), "(c) A+C not spanning/connected")
    if mode in (BASE_SUN, GENERAL):
        _check(not is_balanced(g, wp.a | wp.c).balanced, "(c) A+C has no negative cycle")
    closure = k_closure(g, wp.b, 2).closure
    _check(wp.a <= closure, "(d) 2-closure of B misses part of A")
    if mode != GENERAL:
        # an edge left out of a spanning forest closes a cycle
        _check(len(spanning_forest(g, wp.b)) < len(wp.b), "(e) B contains no cycle")
        if want_sign == MINUS:
            _check(not is_balanced(g, wp.b).balanced, "(e) B has no negative cycle")


# -- path walkers -----------------------------------------------------------------
# The private walkers that sgflow.decompose and sgflow.flows used before every
# path question went through core.shortest_path and core.simple_paths, as
# they were then.

def reference_paths_between_degree_one(g: SignedGraph, c_edges: set[int]):
    """All simple paths (as edge tuples) inside the edge set c_edges whose
    ends are degree-1 vertices of the set (loops count twice)."""
    degs: dict[int, int] = {}
    for e in c_edges:
        for v in g.ends(e):
            degs[v] = degs.get(v, 0) + 1
    ones = sorted(v for v, d in degs.items() if d == 1)
    inc: dict[int, list[int]] = {}
    for e in c_edges:
        u, v = g.ends(e)
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)

    for start in ones:
        stack = [(start, (), {start})]
        while stack:
            v, path, seen = stack.pop()
            if path and degs[v] == 1 and v > start:
                yield path
                continue
            for e in inc.get(v, []):
                if path and e == path[-1]:
                    continue
                w = g.other_end(e, v)
                if w in seen:
                    continue
                stack.append((w, path + (e,), seen | {w}))


def reference_simple_paths(g: SignedGraph, src: int, dst: int,
                           banned: set[int]) -> list[tuple[int, ...]]:
    """All simple src-dst paths avoiding the banned vertices, as edge
    tuples, shortest (then lexicographically least) first."""
    out: list[tuple[int, ...]] = []
    inc: dict[int, list[int]] = {}
    for e in range(g.m):
        u, v = g.ends(e)
        if u == v or u in banned or v in banned:
            continue
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)

    def rec(v: int, used_v: set[int], path: list[int]) -> None:
        if v == dst:
            out.append(tuple(path))
            return
        for e in inc.get(v, []):
            w = g.other_end(e, v)
            if w in used_v:
                continue
            used_v.add(w)
            path.append(e)
            rec(w, used_v, path)
            path.pop()
            used_v.discard(w)

    if src in banned or dst in banned:
        return []
    rec(src, {src}, [])
    out.sort(key=lambda p: (len(p), p))
    return out


def reference_sun_return_path(g: SignedGraph, cycle_vertices, src: int,
                              dst: int, need: int
                              ) -> Optional[tuple[int, ...]]:
    """The path that closes a sun's return cycle, as flows.sun_flow chose
    it while it listed every path: the least by (length, edges) of all
    simple src-dst paths off the sun's cycle whose signs multiply to need,
    read from src; None if there is none."""
    return min((p for p in reference_simple_paths(g, src, dst,
                                                  set(cycle_vertices))
                if cycle_sign(g, p) == need),
               key=lambda p: (len(p), p), default=None)


def reference_connecting_path(g: SignedGraph, pool, c1, c2
                              ) -> Optional[tuple[int, list[int], int]]:
    """Shortest path inside pool from V(c1) to V(c2), internally disjoint
    from both cycles; returns (junction1, edge list, junction2).  c1 and c2
    need only `vertices` and `edge_set`."""
    v1, v2 = set(c1.vertices), set(c2.vertices)
    usable = [e for e in pool
              if e not in c1.edge_set and e not in c2.edge_set
              and not g.is_loop(e)]
    prev: dict[int, tuple[int, int]] = {}
    queue = sorted(v1)
    seen = set(queue)
    while queue:
        x = queue.pop(0)
        for e in usable:
            if x not in g.ends(e):
                continue
            y = g.other_end(e, x)
            if y in seen or y in v1:
                continue
            prev[y] = (x, e)
            if y in v2:
                edges = []
                cur = y
                while cur not in v1:
                    p, pe = prev[cur]
                    edges.append(pe)
                    cur = p
                edges.reverse()
                return cur, edges, y
            seen.add(y)
            queue.append(y)
    return None


def _bridges_of_removed_path(g: SignedGraph, c_edges: set[int],
                             path: Sequence[int]) -> list[frozenset[int]]:
    """Edge sets of the non-trivial components of C - E(P)."""
    rest = c_edges - set(path)
    if not rest:
        return []
    sub = edge_subgraph(g, rest)
    comps = components(sub)
    out = []
    for comp in comps:
        es = frozenset(e for e in rest if set(g.ends(e)) <= comp)
        if es:
            out.append(es)
    return out


def reference_improving_path(g: SignedGraph, c_edges: set[int],
                             protect_negative: bool = False
                             ) -> tuple[int, ...]:
    """A path between two degree-1 vertices of C leaving at most one
    bridge; with protect_negative, the remainder C - E(P) must stay
    unbalanced (the surviving bridge carries a negative cycle).

    Candidates are ranked by the lexicographic bridge-size order from the
    decomposition arguments (largest surviving bridge first)."""
    best: Optional[tuple] = None
    for path in reference_paths_between_degree_one(g, c_edges):
        bridges = _bridges_of_removed_path(g, c_edges, path)
        if len(bridges) > 1:
            continue
        if protect_negative:
            if not bridges or is_balanced(edge_subgraph(g, bridges[0])
                                          ).balanced:
                continue
        size = 0
        if bridges:
            size = len(bridges[0]) + len(_edge_subgraph_vertices(g, bridges[0]))
        key = (-size, len(path), path)
        if best is None or key < best[0]:
            best = (key, path)
    if best is None:
        raise ValueError("no improving path exists"
                         + (" with unbalanced remainder" if protect_negative else ""))
    return best[1]


def coloring_from_flow(eg, dual, f, A) -> list:
    """Flow-to-tension, the inverse of duality.flow_from_coloring: recover
    c with c(v) - c(u) = value on the dual edge of uv, up to a constant (c
    is 0 at vertex 0).  On the projective plane this needs A without
    order-2 elements (a closed walk picks up a discrepancy d with 2d = 0).
    Input f is in the default orientation of the dual."""
    if eg.surface == PROJECTIVE:
        if any(x != A.zero and A.add(x, x) == A.zero for x in A.elements()):
            raise ValueError("projective potentials need a group without"
                             " order-2 elements")
    # back to the dual's own orientation, then read tensions
    vals = [x if d == 1 else A.neg(x) for x, d in zip(f, dual.direction)]
    g = eg.graph
    c: list[Optional[tuple]] = [None] * g.n
    c[0] = A.zero
    stack = [0]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for e, (u, v, _) in enumerate(g.edges):
        adj[u].append((e, v))
        adj[v].append((e, u))
    while stack:
        x = stack.pop()
        for e, y in adj[x]:
            if c[y] is not None:
                continue
            u, v = g.ends(e)
            if x == u:
                c[y] = A.add(c[x], vals[e])
            else:
                c[y] = A.sub(c[x], vals[e])
            stack.append(y)
    if any(x is None for x in c):
        raise ValueError("primal graph is disconnected")
    for e, (u, v, _) in enumerate(g.edges):
        if A.sub(c[v], c[u]) != vals[e]:
            raise ValueError(f"input is not a flow: tension mismatch on"
                             f" edge {e}")
    return c


def orientable_double_cover(eg: EmbeddedGraph) -> EmbeddedGraph:
    """The plane double cover of a projective embedding.  Vertex v lifts to
    v and v + n, the second with its rotation reversed; edge e lifts to 2e,
    leaving v's first lift, and 2e + 1, leaving its second, and an edge
    through the cross-cap ends on the other sheet.  K6's cover is the
    icosahedron, whose oriented dual is the dodecahedron."""
    g = eg.graph

    def lift(e: int, sheet: int) -> int:
        """The lift of edge e that leaves e's first end on that sheet."""
        return 2 * e + (sheet != 1)

    edges = []
    for e, (u, v, _) in enumerate(g.edges):
        for sheet in (1, -1):
            edges.append((u if sheet == 1 else u + g.n,
                          v if sheet * eg.edge_sign[e] == 1 else v + g.n, PLUS))
    rotation = []
    for sheet in (1, -1):
        for rot in eg.rotation:
            lifted = [2 * lift(h // 2, sheet) if h % 2 == 0
                      else 2 * lift(h // 2, sheet * eg.edge_sign[h // 2]) + 1
                      for h in rot]
            rotation.append(tuple(lifted[::sheet]))
    return EmbeddedGraph(SignedGraph(2 * g.n, tuple(edges)), tuple(rotation),
                         (PLUS,) * len(edges), PLANE)


def renumbered(eg: EmbeddedGraph, rng: random.Random) -> EmbeddedGraph:
    """eg with its edges renumbered and random edges stored the other way
    round: the same faces, traced in another order."""
    g = eg.graph
    perm = list(range(g.m))
    rng.shuffle(perm)
    swap = [rng.random() < 0.5 for _ in range(g.m)]
    edges: list = [None] * g.m
    edge_sign: list = [None] * g.m
    for e, (u, v, s) in enumerate(g.edges):
        edges[perm[e]] = (v, u, s) if swap[e] else (u, v, s)
        edge_sign[perm[e]] = eg.edge_sign[e]
    rotation = tuple(tuple(2 * perm[h // 2] + (h % 2 ^ swap[h // 2])
                           for h in rot) for rot in eg.rotation)
    return EmbeddedGraph(SignedGraph(g.n, tuple(edges)), rotation,
                         tuple(edge_sign), eg.surface)
