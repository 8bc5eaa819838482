"""Degree reduction to cubic graphs and restricting flows back by a slice."""

import pytest

from sgflow.core import (MINUS, PLUS, HypothesisError, Orientation,
                         SignedGraph, contract, edge_connectivity,
                         is_k_unbalanced)
from sgflow.groups import is_flow, parse_group
from sgflow.oracle import has_nz_A_flow
from sgflow.reduce import cubicize


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


def test_flow_on_cubicized_graph_slices_to_a_flow():
    # cubicize keeps g's edges as edges 0..m-1, so connect restricts a flow
    # by dropping the appended edges; a nowhere-zero flow puts a nonzero
    # value on each of them
    g = k5_with_negative_triangle()
    h = cubicize(g).graph
    A = parse_group("Z6")
    f = has_nz_A_flow(h, A)
    assert f is not None and h.m > g.m
    assert is_flow(g, Orientation.default(g), f[:g.m], A)
