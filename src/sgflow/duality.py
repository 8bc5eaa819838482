"""Embedded graphs, oriented duals, and the flow <-> coloring dictionary.

Embeddings are combinatorial schemes: a cyclic half-edge rotation per
vertex plus a per-edge sign (-1 = the edge passes through the cross-cap).
Faces come from the standard trace: from state (h, side) move to the
partner half-edge, multiply the side by the edge's embedding sign, and
take the rotation successor (or predecessor on the flipped side).  The
trace has two orbits per face, one per direction, paired off by the
time-reversal map (h, s) -> (partner(h), -s * sign(e)); a face is the
first of its pair, the tuple of its walk's states.

The oriented dual takes one vertex per face.  A primal edge e, directed by
a reference orientation, either agrees with the boundary walk of a face or
not; the dual edge is positive toward the unique agreeing face, or
negative (both ends in, or both ends out) when the counts are 2 or 0.
The dual keeps its own direction at half-edge 2e, one +-1 per edge: a
value read in its own orientation times that factor is the value read in
the default orientation, and the same factor converts back.

match_dual traces the faces once.  Reversing a face's walk switches the
dual at that face and negates the direction of each edge whose first end
it is, so the dual under any face orientations follows from the traced
one in a pass over its edges.  It returns that dual relabelled to a given
signed graph, edge e stored as the target stores edge to[e], with the
storage reversal folded into the direction; the projective route of
flows.connect reads its flows through to alone.  The vertex-bijection
search behind it stops at MATCH_BUDGET nodes with DeskScaleError.  The
one embedding built in, K6 on the projective plane, is exact data: its
derivation from the icosahedron is in k6_projective_embedding's docstring.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .core import (MINUS, PLUS, DeskScaleError, SignedGraph,
                   signatures_equivalent)
from .groups import AbelianGroup, Elem

PLANE = "plane"
PROJECTIVE = "projective"


class EmbeddedGraph:
    def __init__(self, graph: SignedGraph,
                 rotation: tuple[tuple[int, ...], ...],
                 edge_sign: tuple[int, ...], surface: str):
        if surface not in (PLANE, PROJECTIVE):
            raise ValueError(f"unknown surface {surface!r}")
        seen = set()
        for v, rot in enumerate(rotation):
            for h in rot:
                if graph.halfedge_vertex(h) != v:
                    raise ValueError(f"half-edge {h} listed at wrong vertex {v}")
                if h in seen:
                    raise ValueError(f"half-edge {h} listed twice")
                seen.add(h)
        if len(seen) != 2 * graph.m:
            raise ValueError("rotation system does not cover all half-edges")
        if len(edge_sign) != graph.m:
            raise ValueError("edge_sign must be total")
        # the signature is unused by the embedding; the primal is unsigned
        self.graph = graph
        self.rotation = rotation  # cyclic half-edge order per vertex
        self.edge_sign = edge_sign  # embedding signs, -1 = through the cross-cap
        self.surface = surface

    def expected_faces(self) -> int:
        euler = 2 if self.surface == PLANE else 1
        return euler - self.graph.n + self.graph.m


def _rot_step(eg: EmbeddedGraph, h: int, direction: int) -> int:
    rot = eg.rotation[eg.graph.halfedge_vertex(h)]
    i = rot.index(h)
    return rot[(i + direction) % len(rot)]


def _partner(h: int) -> int:
    return h ^ 1


def _next_state(eg: EmbeddedGraph, h: int, s: int) -> tuple[int, int]:
    hb = _partner(h)
    s2 = s * eg.edge_sign[h // 2]
    return _rot_step(eg, hb, 1 if s2 == 1 else -1), s2


def _mirror(eg: EmbeddedGraph, h: int, s: int) -> tuple[int, int]:
    """Time reversal of the face trace: conjugating the successor map by
    this involution inverts it, so each face appears as a mirror pair of
    orbits (the two traversal directions)."""
    return _partner(h), -s * eg.edge_sign[h // 2]


def trace_faces(eg: EmbeddedGraph) -> list[tuple[tuple[int, int], ...]]:
    """All faces, each as its boundary walk of (half-edge, side) states, the
    state (h, s) standing for traversing h's edge away from h's endpoint;
    raises if the Euler count does not match the surface."""
    todo = {(h, s) for h in range(2 * eg.graph.m) for s in (1, -1)}
    orbits: list[tuple[tuple[int, int], ...]] = []
    orbit_of: dict[tuple[int, int], int] = {}
    while todo:
        start = min(todo)
        cur = start
        walk = []
        while True:
            walk.append(cur)
            todo.discard(cur)
            orbit_of[cur] = len(orbits)
            cur = _next_state(eg, *cur)
            if cur == start:
                break
        orbits.append(tuple(walk))
    # pair each orbit with its mirror image (the same face, other direction)
    faces: list[tuple[tuple[int, int], ...]] = []
    taken = set()
    for i, orb in enumerate(orbits):
        if i in taken:
            continue
        h, s = orb[0]
        j = orbit_of[_mirror(eg, h, s)]
        if j == i:
            raise ValueError("self-paired face walk: corrupted embedding data")
        taken.add(i)
        taken.add(j)
        faces.append(orb)
    if len(faces) != eg.expected_faces():
        raise ValueError(
            f"Euler mismatch: traced {len(faces)} faces, expected"
            f" {eg.expected_faces()} on the {eg.surface}")
    return faces


class DualResult:
    def __init__(self, graph: SignedGraph, direction: tuple[int, ...]):
        # one vertex per face; edge index = primal edge index
        self.graph = graph
        # per edge: a value read in the dual's own orientation times this
        # factor is the value read in the graph's default orientation
        self.direction = direction


def oriented_dual(eg: EmbeddedGraph) -> DualResult:
    """Dual signed graph with the agreement rule, each face walked in its
    traced direction.

    The primal reference orientation directs every edge from its first
    stored endpoint to its second, i.e. along half-edge 2e.  A face
    "agrees" with e if its boundary walk traverses e in that direction
    (its walk contains a state on half-edge 2e).
    """
    faces = trace_faces(eg)
    # Each edge e has two "sides": the mirror-pairs {(2e,+),(2e+1,-lam)}
    # and {(2e,-),(2e+1,+lam)}.  side_face[e][k] = face owning side k;
    # agree[e][k] = whether that face's walk runs along 2e.
    m = eg.graph.m
    side_face = [[-1, -1] for _ in range(m)]
    agree = [[False, False] for _ in range(m)]
    for i, face in enumerate(faces):
        for h, s in face:
            e = h // 2
            if h % 2 == 0:
                k = 0 if s == 1 else 1
            else:
                k = 0 if s == -eg.edge_sign[e] else 1
            side_face[e][k] = i
            agree[e][k] = (h % 2 == 0)

    edges = []
    direction = []
    for e in range(m):
        f1, f2 = side_face[e]
        a1, a2 = agree[e]
        edges.append((f1, f2, PLUS if a1 != a2 else MINUS))
        # a positive edge points toward the agreeing face; a negative one
        # points into both faces when both agree, out of both when neither
        # does: either way it enters f1 exactly when f1 agrees
        direction.append(-1 if a1 else 1)
    return DualResult(SignedGraph(len(faces), tuple(edges)), tuple(direction))


def flow_from_coloring(eg: EmbeddedGraph, dual: DualResult,
                       c: Sequence[Elem], A: AbelianGroup) -> list[Elem]:
    """Tension-to-flow: the dual edge of primal uv (directed u -> v) takes
    the value c(v) - c(u); the result is a flow on the dual in its own
    orientation, returned read in the default orientation."""
    out = []
    for (u, v, _), d in zip(eg.graph.edges, dual.direction):
        x = A.sub(c[v], c[u])
        out.append(x if d == 1 else A.neg(x))
    return out


# -- dual <-> target correspondence ----------------------------------------------

# search nodes _isomorphisms may visit, over every bijection it yields
MATCH_BUDGET = 2 ** 16


def _isomorphisms(g1: SignedGraph, g2: SignedGraph):
    """Backtracking vertex bijections preserving underlying adjacency
    (multiplicity-aware, signs ignored).  The search is exponential, so
    past MATCH_BUDGET nodes it raises DeskScaleError, which leaves open
    whether a further bijection exists."""
    if g1.n != g2.n or g1.m != g2.m:
        return
    adj1 = [[0] * g1.n for _ in range(g1.n)]
    adj2 = [[0] * g2.n for _ in range(g2.n)]
    for u, v, _ in g1.edges:
        adj1[u][v] += 1
        adj1[v][u] += 1
    for u, v, _ in g2.edges:
        adj2[u][v] += 1
        adj2[v][u] += 1
    deg1 = [sum(r) for r in adj1]
    deg2 = [sum(r) for r in adj2]
    phi: list[Optional[int]] = [None] * g1.n
    used = [False] * g2.n
    nodes = 0

    def rec(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > MATCH_BUDGET:
            raise DeskScaleError(f"vertex-bijection search past its budget"
                                 f" of {MATCH_BUDGET} nodes")
        if i == g1.n:
            yield tuple(phi)  # type: ignore[misc]
            return
        for w in range(g2.n):
            if used[w] or deg1[i] != deg2[w]:
                continue
            ok = True
            for j in range(i):
                if adj1[i][j] != adj2[w][phi[j]]:
                    ok = False
                    break
            if ok:
                phi[i] = w
                used[w] = True
                yield from rec(i + 1)
                used[w] = False
                phi[i] = None

    yield from rec(0)


def match_dual(eg: EmbeddedGraph,
               target: SignedGraph) -> tuple[DualResult, tuple[int, ...]]:
    """The oriented dual of eg under the face orientations and relabelling
    that make it the target, and the edge map to with
    dual.graph.edges[e] == target.edges[to[e]]; dual.direction reads each
    value into the target's default orientation.  Raises ValueError when
    no relabelling and switching match, DeskScaleError when the search
    for one runs out of budget."""
    base = oriented_dual(eg)
    tgt_sorted = SignedGraph(target.n, tuple(
        sorted((min(u, v), max(u, v), s) for u, v, s in target.edges)))
    # target edges by ends and sign, each list in index order
    slots: dict[tuple[int, int, int], list[int]] = {}
    for te, (u, v, s) in enumerate(target.edges):
        slots.setdefault((min(u, v), max(u, v), s), []).append(te)
    for phi in _isomorphisms(base.graph, target):
        # phi keeps every multiplicity, so both sorted edge lists run over
        # the same underlying graph, position by position
        relabel = SignedGraph(target.n, tuple(
            sorted(((min(phi[u], phi[v]), max(phi[u], phi[v]), s)
                    for u, v, s in base.graph.edges))))
        eq = signatures_equivalent(relabel, tgt_sorted)
        if not eq.equivalent:
            continue
        # reversing a face's walk switches the dual at that face and
        # negates the direction of each edge whose first end it is
        flip = [phi[i] in eq.switching_set for i in range(base.graph.n)]
        free = {key: iter(tes) for key, tes in slots.items()}
        to = []
        direction = []
        for e, (a, b, s) in enumerate(base.graph.edges):
            if flip[a] != flip[b]:
                s = -s
            ta, tb = phi[a], phi[b]
            te = next(free.get((min(ta, tb), max(ta, tb), s), iter(())), None)
            if te is None:
                break
            d = -base.direction[e] if flip[a] else base.direction[e]
            # a positive edge stored the other way round reads its value
            # negated; a negative one reads the same from either end
            if s == PLUS and target.edges[te][0] != ta:
                d = -d
            to.append(te)
            direction.append(d)
        else:
            dual = SignedGraph(target.n, tuple(target.edges[te] for te in to))
            return DualResult(dual, tuple(direction)), tuple(to)
    raise ValueError("no face orientation/relabelling matches the target")


# -- K6 on the projective plane -------------------------------------------------------

def k6_projective_embedding() -> EmbeddedGraph:
    """K6 on the projective plane as the antipodal quotient of the
    icosahedron: the 6 antipodal point pairs are the vertices, the 30
    icosahedral edges fold to the 15 edges of K6, and an edge gets
    embedding sign -1 when it runs from a representative point to the
    antipode of the other representative.  Its oriented dual is the
    Petersen graph: match_dual identifies it with generators.canonical_ps,
    whose docstring gives that labelling.

    The data below is that construction written out.  The icosahedron's
    points are (0, a, b*phi), (a, b*phi, 0) and (b*phi, 0, a) for a, b in
    (1, -1) in that order, phi the golden ratio; the first point of each
    antipodal pair represents it, and vertices are numbered in order of
    their representatives.  Edges are in itertools.combinations order, all
    positive.  A vertex's rotation lists its five neighbour points q in
    increasing atan2(q . u2, q . u1), in the tangent frame at its
    representative p given by u1 = p x n0 / |p x n0| and u2 = (p / |p|) x u1,
    where n0 is the first neighbour in point order."""
    g = SignedGraph(6, tuple((a, b, PLUS)
                             for a, b in itertools.combinations(range(6), 2)))
    rotation = ((2, 0, 6, 8, 4), (14, 1, 10, 16, 12), (11, 3, 18, 20, 22),
                (24, 13, 26, 5, 19), (28, 21, 25, 15, 7), (27, 9, 29, 23, 17))
    edge_sign = (PLUS, PLUS, MINUS, MINUS, PLUS, PLUS, PLUS, MINUS, MINUS,
                 MINUS, PLUS, MINUS, MINUS, MINUS, MINUS)
    return EmbeddedGraph(g, rotation, edge_sign, PROJECTIVE)


# -- embedding text format -----------------------------------------------------------

def parse_emb(text: str) -> EmbeddedGraph:
    """Embedding format: ``emb <surface> <n> <m>``, one ``r <v> <h...>``
    line per vertex (1-based vertices; half-edges 1-based, edge e owning
    2e-1 and 2e), one ``s <e> <+|->`` line per edge at most (edges without
    one are positive).  A bad line raises ValueError naming it."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty embedding file")
    (no, head), *body = lines
    try:
        parts = head.split()
        if len(parts) != 4 or parts[0] != "emb":
            raise ValueError("expected 'emb <surface> <n> <m>'")
        surface, n, m = parts[1], int(parts[2]), int(parts[3])
        if n < 0 or m < 0:
            raise ValueError("counts must not be negative")
        # records are collected before anything is sized by the header
        rotation: dict[int, tuple[int, ...]] = {}
        edge_sign: dict[int, int] = {}
        sign_line: dict[int, int] = {}  # edge -> line of its s record
        halfedge_vertex: dict[int, int] = {}
        for no, ln in body:
            parts = ln.split()
            if parts[0] == "r":
                if len(parts) < 2:
                    raise ValueError("expected 'r <v> <h...>'")
                v = int(parts[1]) - 1
                hs = tuple(int(x) - 1 for x in parts[2:])
                if not (0 <= v < n) or v in rotation:
                    raise ValueError("bad or repeated rotation line")
                for h in hs:
                    if not (0 <= h < 2 * m) or h in halfedge_vertex:
                        raise ValueError(f"bad half-edge {h + 1}")
                    halfedge_vertex[h] = v
                rotation[v] = hs
            elif parts[0] == "s":
                if len(parts) != 3 or parts[2] not in ("+", "-"):
                    raise ValueError("expected 's <e> <+|->'")
                e = int(parts[1]) - 1
                if not (0 <= e < m):
                    raise ValueError(f"edge {e + 1} out of range")
                if e in sign_line:
                    raise ValueError(f"edge {e + 1} already has its sign on"
                                     f" line {sign_line[e]}")
                sign_line[e] = no
                edge_sign[e] = PLUS if parts[2] == "+" else MINUS
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if len(rotation) != n:
        raise ValueError(f"rotation count mismatch: header says {n} vertices,"
                         f" found {len(rotation)} r lines")
    if len(halfedge_vertex) != 2 * m:
        raise ValueError(f"half-edge count mismatch: header says {m} edges"
                         f" ({2 * m} half-edges), found {len(halfedge_vertex)}")
    edges = []
    for e in range(m):
        edges.append((halfedge_vertex[2 * e], halfedge_vertex[2 * e + 1], PLUS))
    g = SignedGraph(n, tuple(edges))
    return EmbeddedGraph(g, tuple(rotation[v] for v in range(n)),
                         tuple(edge_sign.get(e, PLUS) for e in range(m)),
                         surface)


def format_emb(eg: EmbeddedGraph) -> str:
    out = [f"emb {eg.surface} {eg.graph.n} {eg.graph.m}"]
    for v, rot in enumerate(eg.rotation):
        out.append("r " + str(v + 1) + " " + " ".join(str(h + 1) for h in rot))
    for e, s in enumerate(eg.edge_sign):
        out.append(f"s {e + 1} {'+' if s == PLUS else '-'}")
    return "\n".join(out) + "\n"
