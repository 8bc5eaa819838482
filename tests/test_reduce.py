"""Degree reduction to cubic graphs and restricting flows back by a slice."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (circular_ladder, reference_cubicize, signed_multigraphs,
                     spy_on_labelling)
from sgflow import flows
from sgflow.core import (MINUS, PLUS, HypothesisError, SignedGraph,
                         contract_set, edge_connectivity, is_k_unbalanced,
                         parse_sg)
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
def test_choose_uncontraction_half_labels_the_graph_once(monkeypatch, g,
                                                         partner):
    # called without labels, the partner choice labels g once and reads
    # every candidate off that labelling; it used to label each candidate
    # up to the first that passed
    labelled = spy_on_labelling(monkeypatch)
    assert choose_uncontraction_half(g, 0, 0) == partner
    assert labelled == [g]


def test_connect_labels_a_noncubic_input_once(monkeypatch):
    # connect's gate labels its input, cubicize extends that labelling
    # over its five steps and every candidate they weigh, and the
    # tree-2base decomposition of the cubic graph trusts the gate
    labelled = spy_on_labelling(monkeypatch)
    g = k5_with_negative_triangle()
    A = parse_group("Z6")
    cert = flows.connect(g, A, [A.zero] * g.m)
    assert cert.strategy == "composite" and cert.flow is not None
    assert labelled == [g]
    assert len(cubicize(g).history) == 5


def test_cubicize_labels_only_a_graph_it_splits(monkeypatch):
    labelled = spy_on_labelling(monkeypatch)
    cube = circular_ladder(4)
    assert cubicize(cube).graph == cube and labelled == []
    g = k5_with_negative_triangle()
    cubicize(g)
    assert labelled == [g]


@st.composite
def contracted_ladders(draw):
    """A circular ladder with random signs and two of its edges
    contracted: vertices of degree 4 or 5, mostly inside the hypotheses."""
    g = circular_ladder(draw(st.integers(3, 7)))
    g = g.with_signs(draw(st.lists(st.sampled_from((PLUS, MINUS)),
                                   min_size=g.m, max_size=g.m)))
    pair = draw(st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2,
                         unique=True))
    return contract_set(g, pair).graph


def _outcome(cubicize_fn, g):
    """The cubic graph and the history, or the exception's type and text."""
    try:
        res = cubicize_fn(g)
    except (HypothesisError, AssertionError) as exc:
        return type(exc), str(exc)
    return res.graph, [(s.vertex, s.half_e, s.half_f, s.new_vertex,
                        s.new_edge) for s in res.history]


@settings(max_examples=400, deadline=None)
@given(st.one_of(signed_multigraphs(), contracted_ladders()))
def test_cubicize_matches_the_check_per_candidate(g):
    # one labelling, extended step by step, picks the partners that
    # labelling every candidate afresh picked, and fails where it failed
    assert _outcome(cubicize, g) == _outcome(reference_cubicize, g)


def test_cubicize_matches_the_check_per_candidate_on_ladders():
    # every pair of contracted edges of the circular ladders with 3 to 5
    # rungs and a negative rim, most of them inside the hypotheses
    met = 0
    for rungs in (3, 4, 5):
        ladder = circular_ladder(rungs, negative_rim=True)
        for pair in itertools.combinations(range(ladder.m), 2):
            g = contract_set(ladder, pair).graph
            out = _outcome(cubicize, g)
            assert out == _outcome(reference_cubicize, g)
            met += isinstance(out[0], SignedGraph) and bool(out[1])
    assert met >= 200


def test_cubicize_refuses_a_graph_its_labelling_puts_outside():
    # a balanced K5 has no valid candidate: the one labelling says so
    # before any is tried, with the error the candidate loop raised
    g = k5_with_negative_triangle().with_signs([PLUS] * 10)
    with pytest.raises(AssertionError,
                       match="^no valid uncontraction pair at vertex 0:"):
        cubicize(g)
    assert choose_uncontraction_half(g, 0, 0) is None
