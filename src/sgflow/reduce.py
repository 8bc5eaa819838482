"""Degree reduction toward cubic graphs.

Uncontraction splits a high-degree vertex while preserving the two
invariants everything downstream relies on (2-unbalancedness and
3-edge-connectivity); candidate pairs are verified directly rather than
trusting the existence argument, all off one cut labelling of the input
(core._cut_labels).  Contracting the new edge vv' maps the cycle spaces
one to one, and a cycle runs through vv' exactly when it uses an odd
number of the half-edges moved to v', so the old labels stay valid and
vv' takes the XOR of the moved half-edges' labels.  Each step keeps the
old edges' indices and appends one positive edge, so a flow on the cubic
graph restricts to the input graph by a slice (see flows.connect).
"""

from __future__ import annotations

from typing import Optional

from .core import (HypothesisError, SignedGraph, _cut_labels,
                   _negative_xor, uncontract, unmet_hypothesis)


def _labelling(g: SignedGraph, label: Optional[list[int]] = None
               ) -> Optional[tuple[list[int], set[int]]]:
    """A copy of g's cut labels, and the labels a new edge must not take:
    0 (a bridge), the negative edges' XOR (one edge balances the graph)
    and every label (a 2-edge cut).  A given label is trusted; otherwise
    g is labelled here, and None means it is outside the hypotheses."""
    if label is None:
        cut_labels = _cut_labels(g)
        if unmet_hypothesis(g, cut_labels) is not None:
            return None
        label = cut_labels[0]
    label = list(label)
    return label, {0, _negative_xor(g, label), *label}


def choose_uncontraction_half(g: SignedGraph, v: int, h_e: int,
                              labels: Optional[tuple[list[int], set[int]]]
                              = None) -> Optional[int]:
    """Partner half-edge h' at v such that uncontracting {h_e, h'} keeps
    the graph 2-unbalanced and 3-edge-connected, the least one; None if
    there is none.

    labels is (label, barred) from _labelling(g), made here when not
    given; a g outside the hypotheses has no partner.  A candidate is
    valid when the new edge's label, label[h_e // 2] ^ label[h' // 2], is
    not barred, which is connect's entry check (core.unmet_hypothesis)
    of the uncontracted graph.  The argument that at most one fails
    2-unbalancedness and at least two preserve 3-edge-connectivity, so
    that a partner exists, does not hold with loops at v: there h_e can
    have none, and cubicize tries the next half-edge.
    """
    halves = g.halfedges_at(v)
    if len(halves) < 4:
        raise ValueError(f"degree of {v} is below 4")
    if h_e not in halves:
        raise ValueError(f"half-edge {h_e} not at {v}")
    if labels is None:
        labels = _labelling(g)
        if labels is None:
            return None
    label, barred = labels
    x = label[h_e // 2]
    for h in halves:  # in increasing order
        if h != h_e and x ^ label[h // 2] not in barred:
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


def cubicize(g: SignedGraph, label: Optional[list[int]] = None
             ) -> CubicizeResult:
    """Uncontract until every vertex has degree 3.

    g must be 2-unbalanced and 3-edge-connected with at least 2 vertices;
    connect checks this, and hands down as label the cut labels it read
    that off.  A vertex of degree below 3 disproves it and raises
    HypothesisError.  Each step strictly decreases the total degree
    excess sum |deg(v) - 3| and leaves every degree at least 3, so this
    terminates with a cubic graph; the output of each step is re-verified
    to be 2-unbalanced and 3-edge-connected by the partner choice.  Each
    step splits the first vertex of degree at least 4, pairing the least
    half-edge there that has a valid partner with its least partner.

    Without label, g is labelled when some vertex has degree at least 4;
    each step appends the new edge's label.  A g outside the hypotheses
    leaves no candidate valid, and the first step raises AssertionError.
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
    barred = None
    while True:
        v = next((x for x, d in enumerate(cur.degrees()) if d >= 4), None)
        if v is None:
            break
        no_pair = (f"no valid uncontraction pair at vertex {v}:"
                   " preconditions violated?")
        if barred is None:
            labels = _labelling(g, label)
            if labels is None:
                raise AssertionError(no_pair)
            label, barred = labels
        # the least half-edge at v that has a partner, with its least one
        for h_e in sorted(cur.halfedges_at(v)):
            h_f = choose_uncontraction_half(cur, v, h_e, (label, barred))
            if h_f is not None:
                break
        else:
            raise AssertionError(no_pair)
        x = label[h_e // 2] ^ label[h_f // 2]
        label.append(x)
        barred.add(x)
        history.append(UncontractionStep(v, h_e, h_f, cur.n, cur.m))
        cur = uncontract(cur, v, h_e, h_f)
    return CubicizeResult(cur, history)
