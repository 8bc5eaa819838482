"""Degree reduction toward cubic graphs and flow transport across minors.

Uncontraction splits a high-degree vertex while preserving the two
invariants everything downstream relies on (2-unbalancedness and
3-edge-connectivity); candidate pairs are verified directly rather than
trusting the existence argument.  Flows move in the other direction:
restriction drops the uncontraction edge, and lifting through a contracted
A-connected subgraph solves the residual boundary on that subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (Orientation, SignedGraph, contract_set, delete_edges,
                   edge_connectivity, is_k_unbalanced, uncontract)
from .groups import AbelianGroup, Elem, boundary
from . import oracle


def _check_preconditions(g: SignedGraph) -> None:
    if g.n < 2:
        raise ValueError("need at least 2 vertices (single-vertex graphs are"
                         " handled directly by the oracle)")
    if edge_connectivity(g) < 3:
        raise ValueError("graph is not 3-edge-connected")
    if not is_k_unbalanced(g, 2):
        raise ValueError("graph is not 2-unbalanced")


def choose_uncontraction_half(g: SignedGraph, v: int, h_e: int) -> int:
    """Partner half-edge h' at v such that uncontracting {h_e, h'} keeps
    the graph 2-unbalanced and 3-edge-connected.

    Every candidate is verified directly; at most one can fail
    2-unbalancedness and at least two preserve 3-edge-connectivity, so a
    valid partner always exists under the preconditions.
    """
    _check_preconditions(g)
    if g.degree(v) < 4:
        raise ValueError(f"degree of {v} is below 4")
    if g.halfedge_vertex(h_e) != v:
        raise ValueError(f"half-edge {h_e} not at {v}")
    for h in sorted(g.halfedges_at(v)):
        if h == h_e:
            continue
        cand = uncontract(g, v, h_e, h).graph
        if edge_connectivity(cand) >= 3 and is_k_unbalanced(cand, 2):
            return h
    raise AssertionError("no valid uncontraction partner: preconditions violated?")


def choose_uncontraction(g: SignedGraph, v: int, e: int) -> int:
    """Edge-level wrapper: returns the edge of the chosen partner half-edge."""
    cand = [h for h in (2 * e, 2 * e + 1) if g.halfedge_vertex(h) == v]
    if not cand:
        raise ValueError(f"edge {e} not incident to {v}")
    return choose_uncontraction_half(g, v, cand[0]) // 2


@dataclass
class UncontractionStep:
    vertex: int
    half_e: int
    half_f: int
    new_vertex: int
    new_edge: int


@dataclass
class CubicizeResult:
    graph: SignedGraph
    history: list[UncontractionStep] = field(default_factory=list)


def cubicize(g: SignedGraph) -> CubicizeResult:
    """Uncontract until every vertex has degree 3.

    Each step strictly decreases the total degree excess sum |deg(v) - 3|,
    so this terminates; the output of each step is re-verified to be
    2-unbalanced and 3-edge-connected by the partner choice.
    """
    _check_preconditions(g)
    history: list[UncontractionStep] = []
    cur = g
    while True:
        v = next((x for x in range(cur.n) if cur.degree(x) >= 4), None)
        if v is None:
            break
        h_e = min(cur.halfedges_at(v))
        h_f = choose_uncontraction_half(cur, v, h_e)
        res = uncontract(cur, v, h_e, h_f)
        history.append(UncontractionStep(v, h_e, h_f, res.new_vertex, res.new_edge))
        cur = res.graph
    if any(cur.degree(x) != 3 for x in range(cur.n)):
        raise AssertionError("cubicize left a vertex of degree below 3")
    return CubicizeResult(cur, history)


def restrict_flow_after_uncontraction(
    g: SignedGraph,
    g2: SignedGraph,
    f2: Sequence[Elem],
    A: AbelianGroup,
) -> list[Elem]:
    """Restrict a flow-like map from an uncontracted graph back to g.

    g2 must be uncontract(g, ...): one extra vertex (the last) and one
    extra positive edge (the last).  The boundary of f2 at the new vertex
    must vanish; the restriction then has, at each vertex of g, the same
    boundary f2 had (new-vertex contributions fold back into v).
    """
    if g2.n != g.n + 1 or g2.m != g.m + 1:
        raise ValueError("g2 is not an uncontraction of g")
    b2 = boundary(g2, Orientation.default(g2), f2, A)
    if b2[g2.n - 1] != A.zero:
        raise ValueError("boundary at the uncontraction vertex is nonzero")
    return list(f2[:-1])


def lift_flow_through_contraction(
    g: SignedGraph,
    h_edges: Sequence[int],
    A: AbelianGroup,
    f_quot: Sequence[Elem],
    beta: Sequence[Elem],
    fbar: Optional[Sequence[Elem]] = None,
) -> list[Elem]:
    """Extend a nowhere-zero solution on g/H to one on g satisfying beta.

    Quotient values are pulled back to the surviving edges of g (with a
    sign correction for the switches performed while contracting negative
    edges of H), and the residual boundary -- supported on the vertices of
    H -- is solved on H's deleted edges by exhaustive search.  Solvability
    is exactly the A-connectivity of H, which the caller certifies.
    """
    res = contract_set(g, h_edges)
    gq = res.graph
    if len(f_quot) != gq.m:
        raise ValueError("f_quot size does not match g/H")
    eps = [(-1) ** p for p in res.switch_parity]
    beta_q = [A.zero] * gq.n
    for v in range(g.n):
        w = res.vertex_map[v]
        val = beta[v] if eps[v] == 1 else A.neg(beta[v])
        beta_q[w] = A.add(beta_q[w], val)
    bq = boundary(gq, Orientation.default(gq), f_quot, A)
    if bq != beta_q:
        raise ValueError("f_quot does not satisfy the induced quotient boundary")

    f: list[Optional[Elem]] = [None] * g.m
    for e in range(g.m):
        ne = res.edge_map[e]
        if ne is None:
            continue
        a = g.ends(e)[0]
        val = f_quot[ne]
        if res.switch_parity[a] % 2 == 1:
            val = A.neg(val)
        f[e] = val

    tau = Orientation.default(g)
    residual = list(beta)
    for e in range(g.m):
        if f[e] is None:
            continue
        for h in (2 * e, 2 * e + 1):
            v = g.halfedge_vertex(h)
            contrib = f[e] if tau(h) == 1 else A.neg(f[e])
            residual[v] = A.sub(residual[v], contrib)

    missing = [e for e in range(g.m) if f[e] is None]
    if missing:
        keep = set(missing)
        sub = delete_edges(g, set(range(g.m)) - keep)
        sub_fbar = None
        if fbar is not None:
            sub_fbar = [A.zero] * sub.graph.m
            for e in missing:
                sub_fbar[sub.edge_map[e]] = fbar[e]
        sol = oracle.satisfy_boundary(sub.graph, A, residual, fbar=sub_fbar)
        if sol is None:
            raise ValueError("residual boundary unsatisfiable on H"
                             " (H is not A-connected for this instance)")
        for e in missing:
            f[e] = sol[sub.edge_map[e]]
    else:
        if any(r != A.zero for r in residual):
            raise ValueError("no free edges but residual boundary nonzero")

    out = [x for x in f]  # type: ignore[misc]
    if boundary(g, tau, out, A) != list(beta):
        raise AssertionError("lifted map does not satisfy beta")
    return out
