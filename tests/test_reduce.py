"""Degree reduction to cubic graphs and moving flows back across it."""

import pytest

from sgflow.core import (MINUS, PLUS, HypothesisError, Orientation,
                         SignedGraph, contract, edge_connectivity,
                         is_k_unbalanced, uncontract)
from sgflow.generators import petersen_2neg
from sgflow.groups import boundary, parse_group
from sgflow.oracle import has_nz_A_flow
from sgflow.reduce import (choose_uncontraction_half, cubicize,
                           restrict_flow_after_uncontraction)


def k5_with_negative_triangle() -> SignedGraph:
    edges = []
    for u in range(5):
        for v in range(u + 1, 5):
            neg = (u, v) in ((0, 1), (1, 2), (0, 2))
            edges.append((u, v, MINUS if neg else PLUS))
    return SignedGraph(5, tuple(edges))


def test_cubicize_produces_cubic_3ec_2unbalanced():
    g = k5_with_negative_triangle()
    res = cubicize(g)
    g2 = res.graph
    assert all(g2.degree(v) == 3 for v in range(g2.n))
    assert edge_connectivity(g2) >= 3
    assert is_k_unbalanced(g2, 2)
    # one step per missing degree: sum(deg - 3) splits
    assert len(res.history) == sum(g.degree(v) - 3 for v in range(g.n))


def test_cubicize_history_contracts_back():
    g = k5_with_negative_triangle()
    res = cubicize(g)
    cur = res.graph
    for step in reversed(res.history):
        cur = contract(cur, step.new_edge).graph
    assert cur.n == g.n and cur.m == g.m
    assert sorted((min(u, v), max(u, v), s) for u, v, s in cur.edges) == \
        sorted((min(u, v), max(u, v), s) for u, v, s in g.edges)


def test_cubicize_rejects_graphs_outside_preconditions():
    path = SignedGraph(3, ((0, 1, PLUS), (1, 2, PLUS)))
    with pytest.raises(ValueError):
        cubicize(path)
    # a degree-1 vertex next to a degree-4 one: refused before any
    # uncontraction is tried
    pendant = SignedGraph(3, ((0, 1, MINUS), (0, 1, MINUS), (0, 1, PLUS),
                              (0, 2, PLUS)))
    with pytest.raises(HypothesisError, match="vertex 2 has degree 1"):
        cubicize(pendant)


def test_restrict_flow_after_uncontraction():
    g = petersen_2neg()
    A = parse_group("Z6")
    # manufacture an uncontraction by hand: split a degree-3 vertex is not
    # allowed, so go the other way: contract an edge, then flows on g
    # restrict to the contracted graph through the uncontraction view
    v = 0
    # raise the degree of v by contracting an incident edge of the OTHER end
    res = contract(g, 0)  # merge 0 and 1
    gq = res.graph
    w = res.vertex_map[0]
    h_e = min(gq.halfedges_at(w))
    unc = uncontract(gq, w, h_e, choose_uncontraction_half(gq, w, h_e))
    f2 = has_nz_A_flow(unc.graph, A)
    assert f2 is not None
    f = restrict_flow_after_uncontraction(gq, unc.graph, f2, A)
    assert len(f) == gq.m
    b = boundary(gq, Orientation.default(gq), f, A)
    b2 = boundary(unc.graph, Orientation.default(unc.graph), f2, A)
    assert b[:gq.n] == b2[:gq.n]


def test_restrict_rejects_nonzero_boundary_at_new_vertex():
    g = petersen_2neg()
    A = parse_group("Z5")
    res = contract(g, 0)
    gq = res.graph
    w = res.vertex_map[0]
    h_e = min(gq.halfedges_at(w))
    unc = uncontract(gq, w, h_e, choose_uncontraction_half(gq, w, h_e))
    f2 = [(1,)] * unc.graph.m  # arbitrary non-flow values
    b2 = boundary(unc.graph, Orientation.default(unc.graph), f2, A)
    if b2[unc.graph.n - 1] != A.zero:
        with pytest.raises(ValueError):
            restrict_flow_after_uncontraction(gq, unc.graph, f2, A)

