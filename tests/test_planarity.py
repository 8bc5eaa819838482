"""The path-embedding planarity test against networkx's."""

import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import reference_is_planar
from sgflow.generators import petersen
from sgflow.planarity import is_planar


def _complete(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _petersen_less_an_edge_with_apex() -> tuple[int, list[tuple[int, int]]]:
    """Petersen less both ends of an edge (8 vertices, 10 edges), with an
    apex joined to the 4 vertices left of degree 2: the side of
    petersen-2neg's 4-edge cut as the balanced-cut check tests it."""
    g = petersen()
    u, v = g.ends(0)
    kept = [(a, b) for a, b, _ in g.edges if not {a, b} & {u, v}]
    degree = [0] * g.n
    for a, b in kept:
        degree[a] += 1
        degree[b] += 1
    apex = g.n
    return g.n + 1, kept + [(w, apex) for w in range(g.n) if degree[w] == 2]


K33 = [(u, v) for u in range(3) for v in range(3, 6)]
NAMED = {
    "k5": (5, _complete(5)),
    "k5-less-an-edge": (5, _complete(5)[1:]),
    "k33": (6, K33),
    "k33-less-an-edge": (6, K33[1:]),
    "k33-subdivided": (7, K33[1:] + [(0, 6), (6, 3)]),
    "petersen": (10, [(u, v) for u, v, _ in petersen().edges]),
    "petersen-less-an-edge-with-apex": _petersen_less_an_edge_with_apex(),
    "k4-with-loops-and-parallels": (4, _complete(4) + [(0, 0), (2, 2), (0, 1),
                                                       (1, 0), (2, 3)]),
    "k5-with-loops-and-parallels": (5, _complete(5) + [(1, 1), (3, 4)] * 2),
    "two-k5-at-a-vertex": (9, _complete(5) + [(u + 4, v + 4)
                                              for u, v in _complete(5)]),
    "octahedron": (6, [(u, v) for u, v in _complete(6)
                       if {u, v} not in ({0, 1}, {2, 3}, {4, 5})]),
    "k6": (6, _complete(6)),
    "empty": (3, []),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_planarity_of_named_graphs(name):
    n, edges = NAMED[name]
    assert is_planar(n, edges) == reference_is_planar(range(n), edges)


def test_named_graphs_cover_both_answers():
    answers = {name: is_planar(*NAMED[name]) for name in NAMED}
    assert not answers["k5"] and not answers["k33"]
    assert not answers["petersen-less-an-edge-with-apex"]
    assert answers["k5-less-an-edge"] and answers["octahedron"]


@st.composite
def multigraphs(draw):
    """Up to 11 vertices and 30 edges, loops and parallel edges included,
    so both sparse graphs and graphs past Euler's bound occur."""
    n = draw(st.integers(1, 11))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=30))
    return n, edges


@settings(max_examples=500, deadline=None)
@given(multigraphs())
def test_planarity_matches_networkx(case):
    n, edges = case
    want = reference_is_planar(range(n), edges)
    event(f"planar: {want}")
    assert is_planar(n, edges) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 12), st.randoms(use_true_random=False))
def test_planarity_at_the_edge_of_planar(n, rng):
    # a maximal planar graph, grown edge by edge while networkx calls it
    # planar, is planar, and each edge it refused makes it nonplanar
    pairs = _complete(n)
    rng.shuffle(pairs)
    kept: list[tuple[int, int]] = []
    refused = []
    for pair in pairs:
        if reference_is_planar(range(n), kept + [pair]):
            kept.append(pair)
        else:
            refused.append(pair)
    assert is_planar(n, kept)
    for pair in refused[:3]:
        assert not is_planar(n, kept + [pair])
