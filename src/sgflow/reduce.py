"""Degree reduction toward cubic graphs.

Uncontraction splits a high-degree vertex while preserving the two
invariants everything downstream relies on (2-unbalancedness and
3-edge-connectivity); candidate pairs are verified directly rather than
trusting the existence argument.  Each step keeps the old edges' indices
and appends one positive edge, so a flow on the cubic graph restricts to
the input graph by slicing off the appended edges (see flows.connect).
"""

from __future__ import annotations

from typing import Optional

from .core import HypothesisError, SignedGraph, uncontract, unmet_hypothesis


def choose_uncontraction_half(g: SignedGraph, v: int, h_e: int
                              ) -> Optional[int]:
    """Partner half-edge h' at v such that uncontracting {h_e, h'} keeps
    the graph 2-unbalanced and 3-edge-connected, the least one; None if
    there is none.

    g must be 2-unbalanced and 3-edge-connected, which the caller checks
    (cubicize's input, or the previous step's verified candidate).  Every
    candidate is verified directly, by connect's own entry check
    (core.unmet_hypothesis), which answers both hypotheses from one cut
    labelling of the candidate.  The argument that at most one fails
    2-unbalancedness and at least two preserve 3-edge-connectivity, so
    that a partner exists, does not hold with loops at v: there h_e can
    have none, and cubicize tries the next half-edge.
    """
    if g.degree(v) < 4:
        raise ValueError(f"degree of {v} is below 4")
    if g.halfedge_vertex(h_e) != v:
        raise ValueError(f"half-edge {h_e} not at {v}")
    for h in sorted(g.halfedges_at(v)):
        if h == h_e:
            continue
        cand = uncontract(g, v, h_e, h)
        if unmet_hypothesis(cand) is None:
            return h
    return None


class UncontractionStep:
    def __init__(self, vertex: int, half_e: int, half_f: int,
                 new_vertex: int, new_edge: int):
        self.vertex = vertex
        self.half_e = half_e
        self.half_f = half_f
        self.new_vertex = new_vertex
        self.new_edge = new_edge


class CubicizeResult:
    def __init__(self, graph: SignedGraph,
                 history: Optional[list[UncontractionStep]] = None):
        self.graph = graph
        self.history = [] if history is None else history


def cubicize(g: SignedGraph) -> CubicizeResult:
    """Uncontract until every vertex has degree 3.

    g must be 2-unbalanced and 3-edge-connected with at least 2 vertices;
    connect checks this.  A vertex of degree below 3 disproves it and
    raises HypothesisError.  Each step strictly decreases the total degree
    excess sum |deg(v) - 3| and leaves every degree at least 3, so this
    terminates with a cubic graph; the output of each step is re-verified
    to be 2-unbalanced and 3-edge-connected by the partner choice.  Each
    step splits the first vertex of degree at least 4, pairing the least
    half-edge there that has a valid partner with its least partner.
    """
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
        # the least half-edge at v that has a partner, with its least one
        for h_e in sorted(cur.halfedges_at(v)):
            h_f = choose_uncontraction_half(cur, v, h_e)
            if h_f is not None:
                break
        else:
            raise AssertionError("no valid uncontraction pair at vertex"
                                 f" {v}: preconditions violated?")
        history.append(UncontractionStep(v, h_e, h_f, cur.n, cur.m))
        cur = uncontract(cur, v, h_e, h_f)
    return CubicizeResult(cur, history)
