"""Cycles, closures, peripheral cycles and negative suns."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (graphs_with_edge_sets, random_connected_graph,
                     reference_cycles_within, reference_fundamental_cycle,
                     reference_k_closure, signed_multigraphs)
from sgflow.core import MINUS, PLUS, SignedGraph, spanning_forest
from sgflow.generators import petersen
from sgflow.structures import (ClosureResult, CycleRef, all_cycles,
                               as_negative_sun,
                               build_negative_sun, cycle_sign,
                               cycles_within, fundamental_cycle,
                               fundamental_cycles, is_peripheral, k_closure, order_cycle)


def test_petersen_has_57_cycles():
    cycles = all_cycles(petersen(all_positive=True))
    assert len(cycles) == 57
    by_len = {}
    for c in cycles:
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}


def test_an_equal_graph_built_again_hits_the_cycle_memo():
    first = all_cycles(petersen())
    hits = all_cycles.cache_info().hits
    assert all_cycles(petersen()) is first
    assert all_cycles.cache_info().hits == hits + 1


def test_cycle_refs_compare_without_their_cached_edge_sets():
    c = all_cycles(petersen())[0]
    d = CycleRef(c.edges, c.vertices, c.sign)
    assert c.edge_set == frozenset(c.edges) and c.mask
    assert {"edge_set", "mask"} <= vars(c).keys()
    assert not {"edge_set", "mask"} & vars(d).keys()
    assert c == d and hash(c) == hash(d)
    assert c != CycleRef(c.edges, c.vertices, -c.sign)
    assert c != CycleRef(c.edges[1:] + c.edges[:1], c.vertices, c.sign)
    with pytest.raises(AttributeError):
        d.sign = -d.sign


def test_fresh_closure_results_own_their_steps():
    one, two = ClosureResult(frozenset()), ClosureResult(frozenset())
    one.steps.append((all_cycles(petersen())[0], frozenset({0})))
    assert two.steps == [] and one.steps is not two.steps


@st.composite
def graphs_with_edge_subsets(draw):
    """n = 1..7 vertices, loops of either sign and parallel edges, and a
    random subset of the edges."""
    n = draw(st.integers(1, 7))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                          max_size=12))
    g = SignedGraph(n, tuple(edges))
    subset = draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
    return g, subset


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_subsets())
def test_cycles_within_matches_subgraph_enumeration(case):
    g, subset = case
    assert cycles_within(g, subset) == reference_cycles_within(g, subset)


def test_order_cycle_recovers_traversal_order():
    g = petersen()
    ref = order_cycle(g, {0, 1, 2, 3, 4})  # the outer 5-cycle
    assert len(ref) == 5
    for i in range(5):
        v = ref.vertices[i]
        prev, cur = ref.edges[i - 1], ref.edges[i]
        assert v in g.ends(prev) and v in g.ends(cur)
    assert ref.sign == cycle_sign(g, ref.edges)


def test_order_cycle_rejects_non_cycles():
    g = petersen()
    with pytest.raises(ValueError):
        order_cycle(g, {0, 1, 2})  # a path, not a cycle


def test_fundamental_cycle_lies_in_tree_plus_edge():
    rng = random.Random(3)
    for _ in range(100):
        g = random_connected_graph(rng)
        tree = spanning_forest(g, range(g.m))
        cotree = [e for e in range(g.m) if e not in set(tree)]
        if not cotree:
            continue
        e = rng.choice(cotree)
        cyc = fundamental_cycle(g, tree, e)
        assert e in cyc
        assert all(x == e or x in set(tree) for x in cyc)


def _cycle_or_refusal(find, e):
    try:
        return find(e)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs(), st.data())
def test_fundamental_cycles_climb_the_tree_search_path(g, data):
    # a forest of some of the edges, loops among them never in it; each
    # edge's cycle from the rooted forest, or its refusal when its ends
    # lie in different trees, is the breadth-first search's
    kept = data.draw(st.lists(st.sampled_from(range(g.m)), unique=True)
                     if g.m else st.just([]))
    forest = spanning_forest(g, kept)
    climb = fundamental_cycles(g, forest)
    for e in range(g.m):
        want = _cycle_or_refusal(
            lambda x: reference_fundamental_cycle(g, forest, x), e)
        assert _cycle_or_refusal(climb, e) == want
        assert _cycle_or_refusal(
            lambda x: fundamental_cycle(g, forest, x), e) == want


def test_fundamental_cycles_refuse_ends_in_different_trees():
    g = SignedGraph(4, ((0, 1, PLUS), (2, 3, PLUS), (1, 2, MINUS),
                        (3, 3, MINUS)))
    climb = fundamental_cycles(g, [0, 1])
    with pytest.raises(ValueError, match="different tree components"):
        climb(2)
    assert climb(3) == [3]  # a loop is its own cycle


def test_k_closure_absorbs_through_short_positive_cycles():
    g = petersen(all_positive=True)
    seed = set(range(g.m)) - {14}
    res = k_closure(g, seed, 2)
    assert res.closure == frozenset(range(g.m))
    # the missing edge must appear in some step's absorbed set
    assert any(14 in w for _, w in res.steps)


def test_k_closure_steps_are_disjoint_and_grounded():
    rng = random.Random(21)
    for _ in range(50):
        g = random_connected_graph(rng)
        seed = {e for e in range(g.m) if rng.random() < 0.5}
        res = k_closure(g, seed, 2)
        seen = set(seed)
        for cyc, w in res.steps:
            assert not (w & seen)  # newly absorbed edges only
            assert cyc.sign == PLUS
            assert set(cyc.edges) <= seen | w
            assert len(set(cyc.edges) - seen) <= 2
            seen |= w
        assert seen == set(res.closure)


@settings(max_examples=200, deadline=None)
@given(graphs_with_edge_sets(), st.integers(1, 3))
def test_k_closure_matches_the_set_scan(case, k):
    # kills a bit count off by one, and a mask that drops or keeps an edge
    # it should not; the steps feed flows._fix_over_closure and sg closure
    g, seed = case
    res = k_closure(g, seed, k)
    assert (res.closure, res.steps) == reference_k_closure(g, seed, k)


def test_is_k_base_on_petersen():
    g = petersen(all_positive=True)
    every = frozenset(range(g.m))
    assert k_closure(g, range(g.m), 2).closure == every
    # the outer cycle closes to itself only
    assert k_closure(g, range(5), 2).closure != every


def test_peripheral_cycles_in_petersen():
    g = petersen(all_positive=True)
    outer = order_cycle(g, {0, 1, 2, 3, 4})
    assert is_peripheral(g, outer)  # the other 5 vertices stay connected


def test_build_and_recognize_negative_sun():
    for n in (3, 4, 5):
        g, sun = build_negative_sun(n)
        sun.validate(g)
        back = as_negative_sun(g, sun.edge_set)
        assert back is not None
        back.validate(g)
        assert back.edge_set == sun.edge_set
