"""Degree reduction to cubic graphs and restricting flows back by a slice."""

import pytest
from hypothesis import assume, given, settings

from helpers import signed_multigraphs
from sgflow import core
from sgflow.core import (MINUS, PLUS, HypothesisError, SignedGraph,
                         contract_set, edge_connectivity, is_k_unbalanced,
                         parse_sg, uncontract)
from sgflow.groups import is_flow, parse_group
from sgflow.oracle import has_nz_A_flow
from sgflow.reduce import (CubicizeResult, UncontractionStep,
                           choose_uncontraction_half, cubicize)


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


def test_fresh_cubicize_results_own_their_history():
    g = k5_with_negative_triangle()
    one, two = CubicizeResult(g), CubicizeResult(g)
    one.history.append(UncontractionStep(0, 0, 2, 5, 10))
    assert two.history == [] and one.history is not two.history


def test_cubicize_history_contracts_back():
    g = k5_with_negative_triangle()
    res = cubicize(g)
    cur = res.graph
    for step in reversed(res.history):
        cur = contract_set(cur, [step.new_edge]).graph
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


@settings(max_examples=200, deadline=None)
@given(signed_multigraphs())
def test_cubicize_names_the_first_vertex_of_degree_below_three(g):
    # the one-pass degree counts pick the vertex the per-vertex scan would
    low = next((v for v in range(g.n) if g.degree(v) < 3), None)
    assume(g.n >= 2 and low is not None)
    with pytest.raises(HypothesisError,
                       match=f"^vertex {low} has degree {g.degree(low)}:"):
        cubicize(g)


def test_flow_on_cubicized_graph_slices_to_a_flow():
    # cubicize keeps g's edges as edges 0..m-1, so connect restricts a flow
    # by dropping the appended edges; a nowhere-zero flow puts a nonzero
    # value on each of them
    g = k5_with_negative_triangle()
    h = cubicize(g).graph
    A = parse_group("Z6")
    f = has_nz_A_flow(h, A)
    assert f is not None and h.m > g.m
    assert is_flow(g, f[:g.m], A)


def test_cubicize_skips_a_half_edge_with_no_partner():
    # three parallel edges and a negative loop at vertex 0: no partner of
    # half-edge 0 keeps the graph 3-edge-connected and 2-unbalanced, so the
    # first step pairs the next half-edge, 3, with the loop's half-edge 6
    g = parse_sg("sg 2 4\ne 1 2 -\ne 2 1 +\ne 1 2 +\ne 1 1 -\n")
    assert choose_uncontraction_half(g, 0, 0) is None
    res = cubicize(g)
    assert [(s.vertex, s.half_e, s.half_f, s.new_vertex, s.new_edge)
            for s in res.history] == [(0, 3, 6, 2, 4), (0, 0, 8, 3, 5)]
    h = res.graph
    assert all(h.degree(v) == 3 for v in range(h.n))
    assert edge_connectivity(h) >= 3 and is_k_unbalanced(h, 2)


@pytest.mark.parametrize("g,partner", [
    (k5_with_negative_triangle(), 2),
    (parse_sg("sg 2 4\ne 1 2 -\ne 2 1 +\ne 1 2 +\ne 1 1 -\n"), None)])
def test_choose_uncontraction_half_labels_each_candidate_once(monkeypatch, g,
                                                              partner):
    # each candidate is checked by connect's entry check, one cut labelling
    # for both hypotheses, up to the first that passes
    labelled = []
    cut_labels = core._cut_labels

    def spy(h):
        labelled.append(h)
        return cut_labels(h)

    monkeypatch.setattr(core, "_cut_labels", spy)
    assert choose_uncontraction_half(g, 0, 0) == partner
    tried = [h for h in sorted(g.halfedges_at(0)) if h != 0]
    if partner is not None:
        tried = tried[:tried.index(partner) + 1]
    assert labelled == [uncontract(g, 0, 0, h) for h in tried]
