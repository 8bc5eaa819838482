"""Signed multigraphs with half-edge incidences.

A signed graph is a multigraph (loops and parallel edges allowed) together
with a signature sigma: E -> {+1, -1}.  Every edge e consists of two
half-edges 2e and 2e+1; half-edge 2e sits at the first endpoint, 2e+1 at
the second.  Loops have both half-edges at the same vertex.  The library
reads every flow and boundary in one orientation, the default, which
end_coeffs states: an edge leaves its first end and, when negative, also
leaves its second.

Graphs are immutable values, so every operation returns a new graph.
uncontract keeps every index (it appends its new vertex and edge);
contract_set contracts an edge set in one pass and returns the vertex map,
edge map and switching parity that translate old indices.

Questions about an edge set of g take the set as data over g's own indices,
so no subgraph is built to answer them: spanning_forest is the one
union-find, component_count counts components with it, and is_balanced
colours only the listed edges.  The cuts are the edge sets whose XOR
labels over a spanning forest (_cut_labels) XOR to 0: small_cuts lists
those of at most four edges without scanning vertex subsets, each side a
vertex bit mask (the XOR of the subtree masks below the cut's tree
edges), and min_negative_edges reads the frustration index off the same
labels.  A zero label is a bridge and two equal labels a 2-edge cut, so
edge_connectivity reads cuts of one or two edges straight off the labels
and lists larger ones only where every vertex has more non-loop edges,
unmet_hypothesis answers "3-edge-connected and 2-unbalanced" from one
labelling, which a caller may hold and ask more of, and
_cubic_3connected_labels hands the labelling that decides
"cubic and 3-connected" to a caller that lists the cuts next.
Paths inside an edge set come from two searches over one (edge,
neighbour) adjacency: shortest_path, breadth-first with ties broken by the
listed edge order, and simple_paths, every simple path between two ends
once, one list per length, shortest first, so a caller that wants the
shortest paths of some kind stops reading at the first length that holds
one.  _blocks is the one lowpoint search (Hopcroft and Tarjan): the
blocks of a graph given as vertex pairs, for planarity and for the
2-connectivity of an edge set.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import Collection, Iterable, Iterator, Optional, Sequence

PLUS = 1
MINUS = -1

class DeskScaleError(Exception):
    """Input exceeds the configured limits for an exhaustive routine."""


class HypothesisError(ValueError):
    """The input lies outside a theorem's or a construction's hypotheses."""


# How a Frozen subclass's __init__ sets its attributes.  Writing to
# self.__dict__ instead would build the instance's dict, which makes every
# later attribute read slower.
_setattr = object.__setattr__


class Frozen:
    """Base of the values that are hashed: assigning or deleting an
    attribute raises AttributeError, so a value keeps its hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable:"
                             f" cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable:"
                             f" cannot delete {name!r}")


class SignedGraph(Frozen):
    """Signed multigraph with dense vertex indices 0..n-1 and edge indices 0..m-1.

    An immutable value: equal (n, edges) give equal graphs with equal
    hashes, so a graph built again hits the memos keyed by graphs (the
    cycle list in structures)."""

    def __init__(self, n: int, edges: tuple[tuple[int, int, int], ...]):
        for u, v, s in edges:  # (u, v, sigma)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {(u, v, s)}")
            if s not in (PLUS, MINUS):
                raise ValueError(f"bad sign {s}")
        _setattr(self, "n", n)
        _setattr(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        # Hypothesis prints falsifying graphs with it
        return f"SignedGraph(n={self.n!r}, edges={self.edges!r})"

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def sigma(self, e: int) -> int:
        return self.edges[e][2]

    def ends(self, e: int) -> tuple[int, int]:
        u, v, _ = self.edges[e]
        return u, v

    def is_loop(self, e: int) -> bool:
        u, v, _ = self.edges[e]
        return u == v

    def other_end(self, e: int, v: int) -> int:
        u, w, _ = self.edges[e]
        return w if v == u else u

    # Half-edge h of edge e = h // 2; h = 2e at ends(e)[0], 2e+1 at ends(e)[1].
    def halfedge_vertex(self, h: int) -> int:
        return self.edges[h // 2][h % 2]

    def halfedges_at(self, v: int) -> list[int]:
        out = []
        for e, (u, w, _) in enumerate(self.edges):
            if u == v:
                out.append(2 * e)
            if w == v:
                out.append(2 * e + 1)
        return out

    def incident_edges(self, v: int) -> list[int]:
        """Edges touching v; a loop appears once."""
        return sorted({h // 2 for h in self.halfedges_at(v)})

    def degree(self, v: int) -> int:
        """Loops count twice."""
        return len(self.halfedges_at(v))

    def degrees(self) -> list[int]:
        """Every vertex's degree, in one pass over the edges; loops count
        twice, as in degree."""
        out = [0] * self.n
        for u, v, _ in self.edges:
            out[u] += 1
            out[v] += 1
        return out

    def with_signs(self, sigma: Sequence[int]) -> "SignedGraph":
        return SignedGraph(self.n, tuple(
            (u, v, sigma[e]) for e, (u, v, _) in enumerate(self.edges)))

    def same_underlying(self, other: "SignedGraph") -> bool:
        return self.n == other.n and all(
            (u, v) == (u2, v2) for (u, v, _), (u2, v2, _) in zip(self.edges, other.edges)
        ) and self.m == other.m


def spanning_forest(g: SignedGraph, edges: Iterable[int]) -> list[int]:
    """A spanning forest of the edge set: the edges, taken in the given
    order, that join two components of the edges before them (union-find
    with path halving).  Loops never qualify."""
    par = list(range(g.n))

    def find(x: int) -> int:
        while par[x] != x:
            par[x] = par[par[x]]
            x = par[x]
        return x

    forest = []
    for e in edges:
        u, v = find(g.edges[e][0]), find(g.edges[e][1])
        if u != v:
            par[u] = v
            forest.append(e)
    return forest


def component_count(g: SignedGraph, edges: Iterable[int],
                    vertices: Collection[int]) -> int:
    """Components of the graph on `vertices` with the given edges, whose
    ends must lie in `vertices`: one per vertex, less one per forest edge."""
    return len(vertices) - len(spanning_forest(g, edges))


def _adjacency(g: SignedGraph, edges: Iterable[int]
               ) -> list[list[tuple[int, int]]]:
    """Each vertex's (edge, neighbour) pairs over the listed edges, in the
    order listed; loops are left out."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in edges:
        u, v, _ = g.edges[e]
        if u != v:
            adj[u].append((e, v))
            adj[v].append((e, u))
    return adj


def shortest_path(g: SignedGraph, edges: Iterable[int], sources: Iterable[int],
                  targets: Iterable[int]
                  ) -> Optional[tuple[int, list[int], int]]:
    """A shortest path inside the edge set from a source to a target, as
    (source, its edges in order, target), or None if there is none.

    Breadth-first search from the sources in increasing order: each vertex
    tries its edges in the order listed, and the first target reached ends
    the search.  The path never re-enters a source, so it has at least one
    edge and a vertex that is both is never reached; loops are skipped."""
    adj = _adjacency(g, edges)
    goal = set(targets)
    queue = sorted(set(sources))
    seen = set(queue)
    prev: dict[int, tuple[int, int]] = {}  # vertex -> (parent vertex, edge)
    for x in queue:  # the queue grows while it is read
        for e, y in adj[x]:
            if y in seen:
                continue
            prev[y] = (x, e)
            if y in goal:
                path = []
                cur = y
                while cur in prev:
                    cur, pe = prev[cur]
                    path.append(pe)
                path.reverse()
                return cur, path, y
            seen.add(y)
            queue.append(y)
    return None


def simple_paths(g: SignedGraph, edges: Iterable[int], ends: Iterable[int]
                 ) -> Iterator[list[tuple[tuple[int, ...], int]]]:
    """Every simple path inside the edge set between two distinct vertices
    of `ends` with no other end on it, once each, read from its lesser end:
    one list per length, shortest first, whose entries are the path's
    edges in order and the bit mask of its vertices other than its last
    end.  Loops are skipped.

    Breadth first over the open paths from each end but the greatest, one
    edge longer per level; a path stops at the first end it reaches and is
    listed when that end is the greater.  The lists end when no open path
    is left, so a caller that stops reading at a length lists no longer
    path."""
    adj = _adjacency(g, edges)
    order = sorted(set(ends))
    is_end = set(order)
    # (last vertex, first vertex, edges, mask of the vertices)
    open_paths = [(v, v, (), 1 << v) for v in order[:-1]]
    while open_paths:
        done = []
        grown = []
        for v, start, path, on in open_paths:
            for e, w in adj[v]:
                if on >> w & 1:
                    continue
                if w in is_end:
                    if w > start:
                        done.append(((*path, e), on))
                    continue
                grown.append((w, start, (*path, e), on | 1 << w))
        yield done
        open_paths = grown


def _blocks(n: int, pairs: Iterable[tuple[int, int]]
            ) -> list[dict[int, set[int]]]:
    """The blocks of three or more vertices of the graph on 0..n-1 with the
    given vertex pairs as edges, each as its adjacency sets; loops and
    parallel edges are left out, since they never split a block.  One
    depth-first search with lowpoints (Hopcroft and Tarjan) pops a block's
    edges off the edge stack when a child has no back edge above its
    parent."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    disc = [-1] * n
    low = [0] * n
    blocks = []
    seen = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = seen
        seen += 1
        edges: list[tuple[int, int]] = []
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if w == parent:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = seen
                    seen += 1
                    edges.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block: dict[int, set[int]] = {}
                    while True:
                        a, b = edges.pop()
                        block.setdefault(a, set()).add(b)
                        block.setdefault(b, set()).add(a)
                        if (a, b) == (parent, v):
                            break
                    if len(block) >= 3:
                        blocks.append(block)
    return blocks


# -- the default orientation ------------------------------------------------

def end_coeffs(g: SignedGraph, e: int) -> dict[int, int]:
    """Edge e's coefficient at each end in the default orientation, the
    first end first: +1 there and -sigma(e) at the second end; 2 for a
    negative loop and nothing for a positive one."""
    u, v, sign = g.edges[e]
    if u != v:
        return {u: 1, v: -sign}
    return {u: 2} if sign == MINUS else {}


# -- balance --------------------------------------------------------------

class BalanceResult:
    def __init__(self, balanced: bool,
                 switching_set: Optional[frozenset[int]] = None,
                 negative_cycle: Optional[tuple[int, ...]] = None):
        self.balanced = balanced
        self.switching_set = switching_set  # makes all edges positive
        # witness edge set (closed walk order)
        self.negative_cycle = negative_cycle


def is_balanced(g: SignedGraph, edges: Optional[Iterable[int]] = None
                ) -> BalanceResult:
    """2-colouring over sign parity: assign s(v) so that s(u)s(v) = sigma(e)
    on every listed edge (all of g's by default), taken in the given order.

    Balanced iff consistent; the switching set is {v: s(v) = -1}.  A
    negative loop is a negative cycle by itself; otherwise, on conflict,
    the path between the endpoints in the search tree plus the offending
    edge is one, in closed walk order.
    """
    es = range(g.m) if edges is None else list(edges)
    for e in es:
        u, w, s = g.edges[e]
        if u == w and s == MINUS:
            return BalanceResult(False, negative_cycle=(e,))
    adj = _adjacency(g, es)
    colour = [0] * g.n  # 0 unknown, else +-1
    tree: list[int] = []
    for root in range(g.n):
        if colour[root]:
            continue
        colour[root] = PLUS
        stack = [root]
        while stack:
            x = stack.pop()
            for e, y in adj[x]:
                want = colour[x] * g.edges[e][2]
                if colour[y] == 0:
                    colour[y] = want
                    tree.append(e)
                    stack.append(y)
                elif colour[y] != want:
                    _, path, _ = shortest_path(g, tree, (x,), (y,))
                    return BalanceResult(False, negative_cycle=(*path, e))
    return BalanceResult(True, switching_set=frozenset(v for v in range(g.n) if colour[v] == MINUS))


class EquivalenceResult:
    def __init__(self, equivalent: bool,
                 switching_set: Optional[frozenset[int]] = None):
        self.equivalent = equivalent
        self.switching_set = switching_set


def signatures_equivalent(g1: SignedGraph, g2: SignedGraph) -> EquivalenceResult:
    """Two signatures on the same underlying graph are equivalent iff the
    set of edges where they differ is an edge-cut, i.e. iff every cycle has
    the same sign under both."""
    if not g1.same_underlying(g2):
        raise ValueError("underlying graphs differ")
    diff = g1.with_signs([MINUS if g1.sigma(e) != g2.sigma(e) else PLUS for e in range(g1.m)])
    res = is_balanced(diff)
    if res.balanced:
        return EquivalenceResult(True, switching_set=res.switching_set)
    return EquivalenceResult(False)


def _negative_xor(g: SignedGraph, label: Sequence[int]) -> int:
    """The XOR of the negative edges' labels from _cut_labels."""
    return functools.reduce(operator.xor, (
        label[e] for e, (_, _, s) in enumerate(g.edges) if s == MINUS), 0)


def min_negative_edges(g: SignedGraph, budget: int = 2) -> Optional[int]:
    """Frustration index: the fewest negative edges over all signatures
    equivalent to g's, if it is at most budget, else None ("exceeds
    budget").

    It equals the fewest edges whose deletion leaves g balanced (Zaslavsky,
    "Signed graphs", 1982), and deleting S balances g exactly when S
    differs from the negative edges by a cut, that is, when the labels of S
    XOR to the target, the XOR of the negative edges' labels (a negative
    loop's own bit is in it).  So this returns the least j <= budget such
    that some j labels XOR to the target: C(m, j) XORs per j.
    """
    label, _, _ = _cut_labels(g)
    target = _negative_xor(g, label)
    for j in range(budget + 1):
        if any(functools.reduce(operator.xor, drop, 0) == target
               for drop in itertools.combinations(label, j)):
            return j
    return None


def is_k_unbalanced(g: SignedGraph, k: int) -> bool:
    """Every signature equivalent to g's has at least k negative edges."""
    return min_negative_edges(g, budget=k - 1) is None


# -- connectivity ----------------------------------------------------------

def edge_connectivity(g: SignedGraph) -> int:
    """Size of a least edge cut of the underlying multigraph (signs
    ignored), if at most 4, else 5 ("at least 5"); 0 when disconnected.

    Cuts of at most two edges are read off the labels from _cut_labels
    (_least_cut_to_3).  Past them, the non-loop edges at a vertex form a
    cut, so with the least non-loop degree d (capped at 5) the answer is 3
    when d is 3, and otherwise the first cut of fewer than d edges that
    _listed_cuts lists off the same labels, in nondecreasing size, or d
    itself: one labelling in all, and on a cubic graph no listing.
    """
    if g.n <= 1:
        return g.m + 1 if g.n == 1 else 0  # conventionally infinite; callers compare with small k
    label, order, up = _cut_labels(g)
    least = _least_cut_to_3(g, label, up)
    if least < 3:
        return least
    degree = [0] * g.n
    for u, v, _ in g.edges:
        if u != v:
            degree[u] += 1
            degree[v] += 1
    cap = min(*degree, 5)
    if cap == 3:
        return 3
    cuts = _listed_cuts(g, cap - 1, label, order, up)
    return next((len(cut) for cut, _ in cuts), cap)


def _least_cut_to_3(g: SignedGraph, label: Sequence[int],
                    up: Sequence[int]) -> int:
    """min(edge_connectivity(g), 3), read off g's _cut_labels: 0 when the
    forest has other than one root (g is disconnected or empty), 1 when a
    label is 0 (a bridge), 2 when two labels are equal (a 2-edge cut).
    A single vertex keeps edge_connectivity's m + 1."""
    if up.count(-1) != 1:
        return 0
    if g.n == 1:
        return min(g.m + 1, 3)
    if 0 in label:
        return 1
    return 2 if len(set(label)) < len(label) else 3


def unmet_hypothesis(g: SignedGraph,
                     labels: Optional[tuple[list[int], list[int], list[int]]]
                     = None) -> Optional[str]:
    """Why g is outside the theorem's hypotheses, as HypothesisError's
    message, or None when g is 3-edge-connected and 2-unbalanced.

    One _cut_labels call answers both, in this order: g is 3-edge-connected
    exactly when _least_cut_to_3 reads 3 off the labels, and 2-unbalanced
    exactly when no set of at most one edge XORs to the negative edges'
    XOR (min_negative_edges with budget 1), that is, when that XOR is
    neither 0 nor a single label.  Equal to asking edge_connectivity(g) >= 3
    and then is_k_unbalanced(g, 2), which label g once each.  labels are
    g's _cut_labels when the caller holds them, to ask more of them
    (connect hands them on to cubicize)."""
    label, _, up = _cut_labels(g) if labels is None else labels
    if _least_cut_to_3(g, label, up) < 3:
        return "graph is not 3-edge-connected"
    target = _negative_xor(g, label)
    if target == 0 or target in label:
        return "graph is not 2-unbalanced"
    return None


def is_cubic_3connected(g: SignedGraph) -> bool:
    """Cubic and 3-connected, for n >= 4.  Such a graph is simple (a loop or
    a digon leaves a cut of at most two edges), and a simple cubic graph's
    vertex and edge connectivity agree, so one labelling decides it
    (_cubic_3connected_labels)."""
    return _cubic_3connected_labels(g) is not None


def _cubic_3connected_labels(g: SignedGraph
                             ) -> Optional[tuple[list[int], list[int], list[int]]]:
    """g's _cut_labels when g is cubic and 3-connected (is_cubic_3connected),
    else None; a graph that is not cubic is not labelled.  A caller that
    asks more of a cubic graph's cuts reads them off these labels."""
    if g.n < 4 or any(d != 3 for d in g.degrees()):
        return None
    labels = _cut_labels(g)
    label, _, up = labels
    return labels if _least_cut_to_3(g, label, up) == 3 else None


def _has_cycle(g: SignedGraph, vertices: set[int]) -> bool:
    """Does the induced subgraph on `vertices` contain a cycle?  Exactly
    when some of its edges (a loop, say) is left out of a spanning forest."""
    es = [e for e, (u, v, _) in enumerate(g.edges) if u in vertices and v in vertices]
    return len(spanning_forest(g, es)) < len(es)


def _tree_order(g: SignedGraph, forest: Iterable[int], roots: Iterable[int]
                ) -> tuple[list[int], list[int]]:
    """The forest's trees from the first of the (distinct) roots each holds,
    tree by tree in breadth-first order, and each vertex's edge to its
    parent (-1 at a root and off these trees)."""
    adj = _adjacency(g, forest)
    up = [-1] * g.n
    order: list[int] = []
    for root in roots:
        if up[root] >= 0:  # an earlier root's tree holds it
            continue
        tree = [root]
        for x in tree:
            for e, y in adj[x]:
                if e != up[x]:
                    up[y] = e
                    tree.append(y)
        order += tree
    return order, up


def _cut_labels(g: SignedGraph) -> tuple[list[int], list[int], list[int]]:
    """XOR labels of g's edges over a spanning forest, and the forest's
    _tree_order from the least vertex of each component.  Each cotree edge,
    loops included, gets a bit of its own, and each tree edge the XOR of
    the bits of the cotree edges whose fundamental cycle runs through it
    (those at the vertices below it).  So an edge set is a cut delta(X),
    meeting every fundamental cycle evenly, exactly when its labels XOR to 0
    (Pritchard and Thurimella, "Fast computation of small cuts via cycle
    space sampling", ACM TALG 2011, without the sampling)."""
    forest = spanning_forest(g, range(g.m))
    order, up = _tree_order(g, forest, range(g.n))
    label = [0] * g.m
    below = [0] * g.n  # the bits at each vertex, then XORed over its subtree
    bit = 1
    in_forest = set(forest)
    for e, (u, v, _) in enumerate(g.edges):
        if e not in in_forest:
            label[e] = bit
            below[u] ^= bit
            below[v] ^= bit  # a loop's bit cancels: it is on no tree edge
            bit <<= 1
    for x in reversed(order):
        e = up[x]
        if e >= 0:
            label[e] = below[x]
            below[g.other_end(e, x)] ^= below[x]
    return label, order, up


def small_cuts(g: SignedGraph, k: int
               ) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
    """Each nonempty edge cut delta(X) of at most k <= 4 edges of a
    connected g, once, as its edges in increasing order and its side X,
    the side without vertex 0.  Cut sizes never decrease along the
    listing, so the first cut is a least one.

    An edge set is a cut exactly when its labels from _cut_labels XOR to
    0.  A cut of s edges is met once, as its first s // 2 edges followed
    by a tail of later edges with the same XOR; tails of one or two edges
    are bucketed by XOR, so the listing takes O(m^2 log m) time plus
    O(|cut|) per cut for X as a bit mask (_listed_cuts).
    """
    if k > 4:
        raise ValueError(f"small_cuts lists cuts of at most 4 edges, not {k}")
    label, order, up = _cut_labels(g)
    if up.count(-1) != 1:  # one root per component
        raise ValueError("small_cuts needs a connected graph")
    for cut, side in _listed_cuts(g, k, label, order, up):
        yield cut, frozenset(v for v in range(g.n) if side >> v & 1)


def _listed_cuts(g: SignedGraph, k: int, label: list[int], order: list[int],
                 up: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """small_cuts of a connected g and k <= 4, from g's _cut_labels, with
    each side X as a vertex bit mask (bit v for vertex v).  X is the set
    of vertices whose tree path from vertex 0 crosses the cut an odd
    number of times: the XOR of the masks of the subtrees below the cut's
    tree edges, O(|cut|) per cut."""

    def xor(es: tuple[int, ...]) -> int:
        out = 0
        for e in es:
            out ^= label[e]
        return out

    below = [0] * g.m  # a tree edge's subtree mask, 0 off the tree
    subtree = [1 << v for v in range(g.n)]
    for x in reversed(order[1:]):
        e = up[x]
        below[e] = subtree[x]
        subtree[g.other_end(e, x)] |= subtree[x]
    tails: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    for size in range(1, (k + 1) // 2 + 1):
        tails[size] = {}
        for tail in itertools.combinations(range(g.m), size):
            tails[size].setdefault(xor(tail), []).append(tail)
    for s in range(1, k + 1):
        for head in itertools.combinations(range(g.m), s // 2):
            bucket = tails[s - s // 2].get(xor(head), [])
            # tails are sorted: skip those that do not start after the head
            first = bisect.bisect_left(bucket, (head[-1] + 1,)) if head else 0
            for tail in bucket[first:]:
                cut = head + tail
                side = 0
                for e in cut:
                    side ^= below[e]
                yield cut, side


def is_cyclically_k_edge_connected(g: SignedGraph, k: int) -> bool:
    """No edge cut of fewer than k <= 5 edges has a cycle on each side.

    The empty cut splits two components with cycles.  A lone component
    with cycles answers for the graph, since the trees beside it lie on
    no cycle; its cuts come from small_cuts."""
    if k > 5:
        raise ValueError(f"cyclic edge connectivity is decided for k <= 5,"
                         f" not {k}")
    forest = spanning_forest(g, range(g.m))
    cotree = set(range(g.m)).difference(forest)
    if not cotree:
        return True
    comp, _ = _tree_order(g, forest, (g.edges[min(cotree)][0],))
    index = {v: i for i, v in enumerate(sorted(comp))}
    if any(g.edges[e][0] not in index for e in cotree):
        return k < 1
    h = SignedGraph(len(index), tuple((index[u], index[v], s)
                                      for u, v, s in g.edges if u in index))
    every = frozenset(range(h.n))
    return not any(_has_cycle(h, x) and _has_cycle(h, every - x)
                   for _, x in small_cuts(h, k - 1))


# -- minor operations -------------------------------------------------------

class MinorResult:
    def __init__(self, graph: SignedGraph, vertex_map: tuple[int, ...],
                 edge_map: tuple[Optional[int], ...],
                 switch_parity: tuple[int, ...]):
        self.graph = graph
        self.vertex_map = vertex_map  # old vertex -> new vertex
        self.edge_map = edge_map  # old edge -> new edge (None if deleted)
        # parity of switches applied at each old vertex during the operation
        # (negative edges are switched positive before identification)
        self.switch_parity = switch_parity


def contract_set(g: SignedGraph, edge_set: Iterable[int]) -> MinorResult:
    """Contract every edge of edge_set (G/X) in one pass over g.

    The set's edges are taken in increasing order over vertex classes, each
    named by its least vertex; an edge within one class joins nothing.  An
    edge joining two classes is made positive, if it is negative under the
    switches so far, by switching the whole class with the lesser least
    vertex, which then absorbs the other.  The classes become the new
    vertices, in order of least vertex.  The other edges keep their order
    and their switched signs, except that a positive edge within one class
    is deleted where it became a loop or is in the set; negative ones are
    kept as loops.
    """
    in_set = set(edge_set)
    cls = list(range(g.n))  # each vertex's class, named by its least vertex
    members = [[v] for v in range(g.n)]
    parity = [0] * g.n
    joined = set()
    for e in sorted(in_set):
        u, v, s = g.edges[e]
        a, b = sorted((cls[u], cls[v]))
        if a == b:
            continue
        joined.add(e)
        if (s == MINUS) != (parity[u] != parity[v]):  # negative so far
            for x in members[a]:
                parity[x] ^= 1
        for x in members[b]:
            cls[x] = a
        members[a] += members[b]
    index = {c: i for i, c in enumerate(sorted(set(cls)))}
    vmap = tuple(index[c] for c in cls)
    new_edges = []
    emap: list[Optional[int]] = []
    for e, (u, v, s) in enumerate(g.edges):
        if parity[u] != parity[v]:
            s = -s
        a, b = vmap[u], vmap[v]
        if e in joined or (a == b and s == PLUS and (u != v or e in in_set)):
            emap.append(None)
            continue
        emap.append(len(new_edges))
        new_edges.append((a, b, s))
    return MinorResult(SignedGraph(len(index), tuple(new_edges)), vmap,
                       tuple(emap), tuple(parity))


def uncontract(g: SignedGraph, v: int, h_e: int, h_f: int) -> SignedGraph:
    """Uncontract at v with the two half-edges h_e, h_f (both at v).

    Adds a new vertex v' = g.n of degree 3: the two half-edges are
    re-attached to v', and a new positive edge vv' = g.m is appended, so
    every old edge keeps its index.  Requires deg(v) >= 4.  The two halves
    of a loop at v make it a loop at v'.
    """
    if g.degree(v) < 4:
        raise ValueError(f"degree of {v} is below 4")
    for h in (h_e, h_f):
        if g.halfedge_vertex(h) != v:
            raise ValueError(f"half-edge {h} is not at vertex {v}")
    if h_e == h_f:
        raise ValueError("half-edges must differ")
    vp = g.n
    edges = [list(ed) for ed in g.edges]
    for h in (h_e, h_f):
        edges[h // 2][h % 2] = vp
    edges.append([v, vp, PLUS])
    return SignedGraph(g.n + 1, tuple(tuple(ed) for ed in edges))


# -- text format -------------------------------------------------------------

def parse_sg(text: str) -> SignedGraph:
    """Signed-graph text format:

    line 1: ``sg <n> <m>``; then m lines ``e <u> <v> <+|->`` with 1-based
    vertex indices.  ``#`` comment lines are ignored.  A bad line raises
    ValueError naming it.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    (no, head), *body = lines
    edges = []
    try:
        parts = head.split()
        if len(parts) != 3 or parts[0] != "sg":
            raise ValueError("expected 'sg <n> <m>'")
        n, m = int(parts[1]), int(parts[2])
        if n < 0 or m < 0:
            raise ValueError("counts must not be negative")
        for no, ln in body:
            parts = ln.split()
            if len(parts) != 4 or parts[0] != "e":
                raise ValueError("expected 'e <u> <v> <+|->'")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if parts[3] not in ("+", "-"):
                raise ValueError("sign must be + or -")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex index out of range")
            edges.append((u, v, PLUS if parts[3] == "+" else MINUS))
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if len(edges) != m:
        raise ValueError(f"edge count mismatch: header says {m}, found {len(edges)}")
    return SignedGraph(n, tuple(edges))


def format_sg(g: SignedGraph) -> str:
    out = [f"sg {g.n} {g.m}"]
    for u, v, s in g.edges:
        out.append(f"e {u + 1} {v + 1} {'+' if s == PLUS else '-'}")
    return "\n".join(out) + "\n"
