"""Signed-graph basics: parsing, switching, balance, connectivity, minors."""

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (CUBIC_GRAPHS, brute_edge_connectivity,
                     brute_frustration_index, components,
                     connected_multigraphs, default_tau, delta, edge_subgraph,
                     graphs_with_edge_sets, random_connected_graph,
                     reference_connecting_path, reference_cut_side,
                     reference_is_cubic_3connected,
                     reference_is_cyclically_k_edge_connected,
                     reference_contract_set, reference_min_negative_edges,
                     reference_blocks, reference_paths_between_degree_one,
                     reference_simple_paths, reference_unmet_hypothesis,
                     signed_cubic_3connected,
                     signed_multigraphs, switch_on_set, uncontract_edges)
from sgflow import core
from sgflow.core import (MINUS, PLUS, SignedGraph, component_count,
                         contract_set, edge_connectivity, end_coeffs,
                         format_sg, is_balanced, is_cubic_3connected,
                         is_cyclically_k_edge_connected, is_k_unbalanced,
                         min_negative_edges, parse_sg, shortest_path,
                         signatures_equivalent, simple_paths, small_cuts,
                         unmet_hypothesis)
from sgflow.generators import k4, k4_negative_triangle, negsun, petersen
from sgflow.structures import cycle_sign, order_cycle


def test_parse_format_round_trip():
    g = k4_negative_triangle()
    assert parse_sg(format_sg(g)).edges == g.edges


def test_parse_rejects_bad_input_with_line_number():
    with pytest.raises(ValueError, match="line"):
        parse_sg("sg 3 1\ne 1 2 ?\n")
    with pytest.raises(ValueError):
        parse_sg("sg 3 2\ne 1 2 +\n")  # missing an edge line


def test_parse_sg_compares_the_sign_word_whole():
    # "+-" is a substring of "+-" and used to read as a negative edge
    with pytest.raises(ValueError, match=r"^line 3: sign must be \+ or -"):
        parse_sg("sg 2 1\n# one edge\ne 1 2 +-\n")


@pytest.mark.parametrize("head", ["sg -1 0", "sg 3 -1"])
def test_parse_sg_rejects_negative_counts(head):
    # "sg -1 0" used to parse as a graph with n = -1
    with pytest.raises(ValueError, match=r"^line 1: counts must not be"):
        parse_sg(head + "\n")


@pytest.mark.parametrize("text, line", [("sg 3 x\n", 1),
                                        ("sg 3 1\ne 1 two +\n", 2)])
def test_parse_sg_names_the_line_of_a_malformed_integer(text, line):
    with pytest.raises(ValueError, match=rf"^line {line}: invalid literal"):
        parse_sg(text)


def test_equal_graphs_built_apart_are_one_immutable_value():
    g, h = petersen(), petersen()
    assert g is not h and g == h
    assert hash(g) == hash(h) == hash((g.n, g.edges))
    assert g != petersen(all_positive=True)
    assert g != SignedGraph(g.n, g.edges[:-1])
    with pytest.raises(AttributeError):
        g.n = 11
    with pytest.raises(AttributeError):
        del g.edges
    assert (g.n, g.m) == (10, 15)


def test_halfedge_indexing():
    g = SignedGraph(3, ((0, 1, PLUS), (1, 2, MINUS)))
    assert g.halfedge_vertex(0) == 0 and g.halfedge_vertex(1) == 1
    assert g.halfedge_vertex(2) == 1 and g.halfedge_vertex(3) == 2
    assert g.ends(1) == (1, 2) and g.sigma(1) == MINUS


def test_default_orientation_encodes_signs():
    # a positive edge leaves one end and enters the other, a negative one
    # leaves both; a loop's two ends add up at its vertex
    g = SignedGraph(3, ((0, 1, MINUS), (1, 2, PLUS), (2, 0, PLUS),
                        (1, 1, MINUS), (2, 2, PLUS)))
    tau = default_tau(g)
    for e, (u, v, sign) in enumerate(g.edges):
        assert tau(2 * e) * tau(2 * e + 1) == -sign
        at = {}
        for h, x in ((2 * e, u), (2 * e + 1, v)):
            at[x] = at.get(x, 0) + tau(h)
        assert end_coeffs(g, e) == {x: c for x, c in at.items() if c}
    assert end_coeffs(g, 3) == {1: 2} and end_coeffs(g, 4) == {}


def test_switch_at_is_an_involution():
    g = k4_negative_triangle()
    assert switch_on_set(switch_on_set(g, {1}), {1}).edges == g.edges


def test_switching_preserves_cycle_signs():
    g = negsun(4)
    g2 = switch_on_set(g, {0, 2, 5})
    assert cycle_sign(g2, range(4)) == cycle_sign(g, range(4))


def test_switched_signatures_are_equivalent():
    g = petersen()
    g2 = switch_on_set(g, {0, 3, 7, 8})
    res = signatures_equivalent(g, g2)
    assert res.equivalent
    assert switch_on_set(g, res.switching_set).edges == g2.edges


def test_balance_verdicts():
    assert is_balanced(petersen(all_positive=True)).balanced
    res = is_balanced(negsun(4))
    assert not res.balanced
    assert cycle_sign(negsun(4), res.negative_cycle) == MINUS
    # the witness is in closed walk order: 3-2-0-1 by the tree path, then
    # the conflicting edge 2 back to 3
    square = SignedGraph(4, ((0, 1, PLUS), (0, 2, PLUS), (1, 3, MINUS),
                             (2, 3, PLUS)))
    assert is_balanced(square).negative_cycle == (3, 1, 0, 2)


def test_min_negative_edges_examples():
    assert min_negative_edges(k4(), budget=2) == 0
    assert min_negative_edges(k4_negative_triangle(), budget=2) == 2
    assert min_negative_edges(petersen(), budget=2) is None  # more than 2
    assert is_k_unbalanced(petersen(), 2)
    assert not is_k_unbalanced(k4(), 1)


def _complete(n: int, first: int = 0) -> list[tuple[int, int, int]]:
    return [(u, v, PLUS) for u, v in
            itertools.combinations(range(first, first + n), 2)]


def test_edge_connectivity_values():
    assert edge_connectivity(petersen()) == 3
    assert edge_connectivity(negsun(4)) == 1
    assert edge_connectivity(k4()) == 3
    # exact up to 4, and 5 for "at least 5"
    assert edge_connectivity(SignedGraph(6, tuple(_complete(6)))) == 5
    assert edge_connectivity(SignedGraph(8, tuple(_complete(8)))) == 5
    joins = [(i, 6 + i, PLUS) for i in range(4)]
    two_k6 = SignedGraph(12, tuple(_complete(6) + _complete(6, 6) + joins))
    assert edge_connectivity(two_k6) == 4
    # loops are not part of vertex 0's cut: its non-loop degree is 4
    triangle = SignedGraph(3, tuple(
        2 * [(0, 1, PLUS), (1, 2, PLUS), (0, 2, MINUS)]
        + [(0, 0, PLUS), (0, 0, MINUS)]))
    assert edge_connectivity(triangle) == 4


def test_edge_connectivity_labels_a_graph_once(monkeypatch):
    # K6's least non-loop degree is 5, so its 3- and 4-edge cuts are listed,
    # from the same labels its bridges and 2-edge cuts are read off
    labelled = []
    cut_labels = core._cut_labels

    def spy(g):
        labelled.append(g)
        return cut_labels(g)

    monkeypatch.setattr(core, "_cut_labels", spy)
    g = SignedGraph(6, tuple(_complete(6)))
    assert edge_connectivity(g) == 5
    assert labelled == [g]


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs())
def test_min_negative_edges_matches_switching_scan(g):
    index = brute_frustration_index(g)
    for budget in range(4):
        assert min_negative_edges(g, budget) == (index if index <= budget else None)
    for k in range(4):
        assert is_k_unbalanced(g, k) == (index >= k)


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs())
def test_min_negative_edges_matches_the_colouring_reference(g):
    # the colouring per deletion set that the cut-space labels replaced
    for budget in range(4):
        assert (min_negative_edges(g, budget)
                == reference_min_negative_edges(g, budget))


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs(), st.data())
def test_cut_labels_xor_to_zero_exactly_on_cuts(g, data):
    # over a spanning forest with any number of trees: every delta(X), and
    # nothing else, XORs to 0
    label, order, up = core._cut_labels(g)
    assert sorted(order) == list(range(g.n))
    assert up.count(-1) == len(components(g))  # one root per tree
    cuts = {frozenset(delta(g, [v for v in range(g.n) if mask >> v & 1]))
            for mask in range(1 << g.n)}
    side = data.draw(st.sets(st.integers(0, g.n - 1)))
    some = data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
    for es in (some, delta(g, side)):
        xor = 0
        for e in es:
            xor ^= label[e]
        assert (xor == 0) == (frozenset(es) in cuts)


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs())
def test_edge_connectivity_matches_bipartition_scan(g):
    # exact up to 4, and 5 for "at least 5", past one vertex
    brute = brute_edge_connectivity(g)
    assert edge_connectivity(g) == (min(brute, 5) if g.n >= 2 else brute)
    assert (edge_connectivity(g) >= 3) == (brute >= 3)


def test_unmet_hypothesis_examples():
    assert unmet_hypothesis(petersen()) is None
    assert unmet_hypothesis(petersen(all_positive=True)) \
        == "graph is not 2-unbalanced"
    # a bridge, and a 2-edge cut: both fail before the signs are read
    assert unmet_hypothesis(negsun(4)) == "graph is not 3-edge-connected"
    digon = SignedGraph(2, ((0, 1, MINUS), (0, 1, MINUS), (0, 0, MINUS)))
    assert unmet_hypothesis(digon) == "graph is not 3-edge-connected"
    # no vertices, and one vertex with m + 1 < 3
    assert unmet_hypothesis(SignedGraph(0, ())) \
        == "graph is not 3-edge-connected"
    assert unmet_hypothesis(SignedGraph(1, ((0, 0, MINUS),))) \
        == "graph is not 3-edge-connected"
    assert unmet_hypothesis(SignedGraph(1, 2 * ((0, 0, MINUS),))) is None


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.just(SignedGraph(0, ())), signed_multigraphs(),
                 connected_multigraphs(extra_hi=14),
                 signed_cubic_3connected(n_hi=10)))
def test_unmet_hypothesis_matches_the_two_checks(g):
    # one labelling answers what edge_connectivity and is_k_unbalanced
    # answer with one each: the same verdict, the same message
    assert unmet_hypothesis(g) == reference_unmet_hypothesis(g)


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_sets(), st.data())
def test_component_count_matches_dfs(case, data):
    # kills an off-by-one in the forest count and loops taken as forest edges
    g, es = case
    sub = edge_subgraph(g, es)
    assert component_count(g, es, range(g.n)) == len(components(sub))
    # on a vertex subset, with the edges inside it
    keep = set(data.draw(st.sets(st.integers(0, g.n - 1))))
    inside = [e for e in es if set(g.ends(e)) <= keep]
    assert component_count(g, inside, keep) == len(
        components(sub, skip_vertices=set(range(g.n)) - keep))


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_sets())
def test_is_balanced_on_an_edge_set_matches_the_subgraph(case):
    # kills a colouring that reads edges outside the set
    g, es = case
    res = is_balanced(g, es)
    assert res.balanced == is_balanced(edge_subgraph(g, es)).balanced
    if res.balanced:
        flip = res.switching_set
        assert all(s == PLUS for u, v, s in (switch_on_set(g, flip).edges[e]
                                               for e in es))
    else:
        cycle = order_cycle(g, res.negative_cycle)
        assert cycle.edge_set <= es and cycle.sign == MINUS
        # in closed walk order: the cycle's walk from some edge, either way
        walk = res.negative_cycle
        turns = {cycle.edges[i:] + cycle.edges[:i] for i in range(len(walk))}
        assert walk in turns or walk[::-1] in turns


# -- path searches against the walkers they replaced ------------------------------

@st.composite
def graphs_with_ordered_edges_and_ends(draw):
    """A signed multigraph, a random subset of its edges in a random order,
    and a random set of its vertices."""
    g, es = draw(graphs_with_edge_sets())
    return g, draw(st.permutations(sorted(es))), draw(
        st.sets(st.integers(0, g.n - 1)))


def _pairwise_simple_paths(g, edges, ends):
    """The old tip-to-tip enumerator run for each pair of ends, with the
    other ends banned, on the edge set as a graph of its own."""
    es = sorted(edges)
    sub = SignedGraph(g.n, tuple(g.edges[e] for e in es))
    return sorted(tuple(es[i] for i in path)
                  for a, b in itertools.combinations(sorted(ends), 2)
                  for path in reference_simple_paths(sub, a, b,
                                                     set(ends) - {a, b}))


def _flat(levels):
    """The paths of simple_paths' levels, in the order listed."""
    return [path for level in levels for path, _ in level]


@settings(max_examples=300, deadline=None)
@given(graphs_with_ordered_edges_and_ends())
def test_simple_paths_match_the_pairwise_enumerator(case):
    # kills a path through an end, and a path yielded from both its ends
    g, edges, ends = case
    assert sorted(_flat(simple_paths(g, edges, ends))) == \
        _pairwise_simple_paths(g, edges, ends)


@settings(max_examples=300, deadline=None)
@given(graphs_with_ordered_edges_and_ends())
def test_simple_paths_list_each_length_once_with_its_vertex_mask(case):
    # kills a path on the wrong level, a level left out or repeated, and a
    # mask with the last end or without the first
    g, edges, ends = case
    every = _pairwise_simple_paths(g, edges, ends)
    levels = list(simple_paths(g, edges, ends))
    for length, level in enumerate(levels, 1):
        assert sorted(path for path, _ in level) == [
            path for path in every if len(path) == length]
        for path, mask in level:
            walk = [min(set(ends) & set(g.ends(path[0])))]
            for e in path:
                walk.append(g.other_end(e, walk[-1]))
            assert mask == sum(1 << v for v in walk[:-1])
    assert max(map(len, every), default=0) <= len(levels)


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_sets())
def test_simple_paths_between_degree_one_ends_match_the_old_enumerator(case):
    g, es = case
    degree = Counter(v for e in es for v in g.ends(e))
    ones = [v for v, d in degree.items() if d == 1]
    assert sorted(_flat(simple_paths(g, es, ones))) == sorted(
        reference_paths_between_degree_one(g, es))


def test_simple_paths_leave_no_end_but_the_lesser_ones(monkeypatch):
    # kills a search started from the greatest end, and one that runs on
    # past an end: each reads the adjacency of the greatest end, 1, whose
    # K4 on 1..4 no path may enter
    read = []
    build = core._adjacency

    class Watched(list):
        def __iter__(self):
            read.append(self.vertex)
            return super().__iter__()

    def watched(g, edges):
        out = [Watched(pairs) for pairs in build(g, edges)]
        for v, pairs in enumerate(out):
            pairs.vertex = v
        return out

    monkeypatch.setattr(core, "_adjacency", watched)
    k4 = tuple((u, v, PLUS) for u, v in itertools.combinations(range(1, 5), 2))
    g = SignedGraph(6, ((0, 5, PLUS), (5, 1, MINUS)) + k4)
    assert _flat(simple_paths(g, range(g.m), (1, 0))) == [(0, 1)]
    assert read == [0, 5]


def test_simple_paths_list_the_lengths_in_order():
    # a square 0-1-2-3 and a longer way 0-4-5-6-2 between the ends 0 and 2
    g = SignedGraph(7, ((0, 1, PLUS), (1, 2, PLUS), (2, 3, PLUS),
                        (3, 0, MINUS), (0, 4, PLUS), (4, 5, PLUS),
                        (5, 6, PLUS), (6, 2, PLUS)))
    assert [[path for path, _ in level]
            for level in simple_paths(g, range(g.m), (0, 2))] == [
        [], [(0, 1), (3, 2)], [], [(4, 5, 6, 7)]]


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs())
def test_blocks_match_networkx(g):
    # kills a block popped too early or too late, a block of two vertices
    # kept, and a loop or a parallel edge taken for a back edge
    pairs = [g.ends(e) for e in range(g.m)]
    got = sorted((sorted(block), sorted((u, v) for u in block
                                        for v in block[u] if u < v))
                 for block in core._blocks(g.n, pairs))
    assert got == reference_blocks(g.n, pairs)


@st.composite
def pools_between_vertex_sets(draw):
    """A connected signed multigraph, most of its edges in a random order
    as the pool, and two stand-in cycles as the old path search read them:
    disjoint nonempty vertex lists in a random order, and at most two pool
    edges each."""
    g = draw(connected_multigraphs())
    assume(g.n >= 2)
    keep = draw(st.lists(st.sampled_from((True, True, True, False)),
                         min_size=g.m, max_size=g.m))
    pool = draw(st.permutations([e for e in range(g.m) if keep[e]]))
    order = draw(st.permutations(range(g.n)))
    i = draw(st.integers(1, g.n - 1))
    j = draw(st.integers(i + 1, g.n))
    blocked = st.sets(st.sampled_from(pool), max_size=2) if pool else \
        st.just(set())
    c1, c2 = (SimpleNamespace(vertices=vs, edge_set=frozenset(draw(blocked)))
              for vs in (order[:i], order[i:j]))
    return g, pool, c1, c2


@settings(max_examples=300, deadline=None)
@given(pools_between_vertex_sets())
def test_shortest_path_matches_the_old_connecting_path(case):
    # kills ties broken in another order: the pool comes in a random order
    g, pool, c1, c2 = case
    usable = [e for e in pool
              if e not in c1.edge_set and e not in c2.edge_set]
    assert shortest_path(g, usable, c1.vertices, c2.vertices) == \
        reference_connecting_path(g, pool, c1, c2)


@st.composite
def cubic_multigraphs(draw):
    """n = 2, 4, ..., 12 vertices, joined by a random perfect matching of
    their 3n half-edges: loops of either sign, parallel edges and
    disconnected graphs all occur."""
    n = draw(st.sampled_from(range(2, 13, 2)))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    signs = draw(st.lists(st.sampled_from((PLUS, MINUS)), min_size=3 * n // 2,
                          max_size=3 * n // 2))
    return SignedGraph(n, tuple((stubs[2 * i], stubs[2 * i + 1], s)
                                for i, s in enumerate(signs)))


@settings(max_examples=300, deadline=None)
@given(cubic_multigraphs())
def test_cubic_3connectivity_matches_vertex_pair_scan(g):
    assert is_cubic_3connected(g) == reference_is_cubic_3connected(g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(signed_multigraphs(), cubic_multigraphs()))
def test_degrees_in_one_pass_match_per_vertex_degree(g):
    # loops count twice in both; the cubic check reads the one-pass counts
    assert g.degrees() == [g.degree(v) for v in range(g.n)]
    per_vertex = (g.n >= 4 and all(g.degree(v) == 3 for v in range(g.n))
                  and edge_connectivity(g) >= 3)
    assert is_cubic_3connected(g) == per_vertex


def test_cyclic_edge_connectivity():
    assert is_cyclically_k_edge_connected(petersen(all_positive=True), 4)
    with pytest.raises(ValueError, match="k <= 5"):
        is_cyclically_k_edge_connected(petersen(), 6)


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs(), st.integers(0, 5))
def test_cyclic_connectivity_matches_the_bipartition_scan(g, k):
    # disconnected graphs with loops: two components with cycles, or one
    assert (is_cyclically_k_edge_connected(g, k)
            == reference_is_cyclically_k_edge_connected(g, k))


@settings(max_examples=150, deadline=None)
@given(signed_cubic_3connected(), st.integers(3, 5))
def test_cyclic_connectivity_on_cubic_graphs_matches_the_scan(g, k):
    assert (is_cyclically_k_edge_connected(g, k)
            == reference_is_cyclically_k_edge_connected(g, k))


@pytest.mark.parametrize("name", sorted(CUBIC_GRAPHS))
def test_cyclic_connectivity_of_the_small_cubic_graphs(name):
    g = CUBIC_GRAPHS[name]
    for k in range(6):
        assert (is_cyclically_k_edge_connected(g, k)
                == reference_is_cyclically_k_edge_connected(g, k))


@settings(max_examples=300, deadline=None)
@given(connected_multigraphs(), st.integers(0, 4))
def test_small_cuts_match_the_bipartition_scan(g, k):
    # every side without vertex 0 whose cut has 1..k edges, once
    want = []
    for mask in range(0, 1 << g.n, 2):
        side = frozenset(v for v in range(g.n) if mask >> v & 1)
        cut = tuple(delta(g, side))
        if 1 <= len(cut) <= k:
            want.append((cut, side))
    got = list(small_cuts(g, k))
    assert sorted(got, key=repr) == sorted(want, key=repr)
    sizes = [len(cut) for cut, _ in got]
    assert sizes == sorted(sizes)  # so the first cut is a least one


@settings(max_examples=300, deadline=None)
@given(connected_multigraphs(), st.integers(1, 4))
def test_listed_cut_masks_are_the_small_cuts_sides(g, k):
    # a side's mask is the XOR of its cut's subtree masks; it must hold the
    # vertices the tree walk finds, and be the side small_cuts reports
    label, order, up = core._cut_labels(g)
    listed = list(core._listed_cuts(g, k, label, order, up))
    assert [(cut, frozenset(v for v in range(g.n) if side >> v & 1))
            for cut, side in listed] == list(small_cuts(g, k))
    for cut, side in listed:
        assert side >> g.n == 0 and not side & 1  # vertex 0 is outside
        x = reference_cut_side(g, cut, order, up)
        assert side == sum(1 << v for v in x)
        assert tuple(delta(g, x)) == cut


def test_small_cuts_needs_a_connected_graph_and_k_at_most_4():
    with pytest.raises(ValueError, match="connected"):
        list(small_cuts(SignedGraph(2, ((0, 0, PLUS),)), 2))
    with pytest.raises(ValueError, match="at most 4"):
        list(small_cuts(k4(), 5))


def test_delta_and_edge_cut():
    g = k4()
    side = {0, 1}
    cut = delta(g, side)
    assert all((u in side) != (v in side) for u, v, _ in
               (g.edges[e] for e in cut))
    # K4: each of 0,1 has two edges leaving {0,1}
    assert len(cut) == 4


def test_contract_positive_edge_merges_ends():
    g = k4()
    res = contract_set(g, [0])
    assert res.graph.n == 3 and res.graph.m == 5
    # the two former (0,3),(1,3) edges become parallel
    ends = {res.vertex_map[0], res.vertex_map[3]}
    assert sum({u, v} == ends for u, v, _ in res.graph.edges) == 2


def test_uncontract_then_contract_restores_graph():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng)
        v = rng.randrange(g.n)
        inc = [e for e in g.incident_edges(v) if not g.is_loop(e)]
        if g.degree(v) < 4 or len(inc) < 2:
            continue
        e, f = rng.sample(inc, 2)
        h = uncontract_edges(g, v, e, f)
        assert h.n == g.n + 1 and h.edges[g.m] == (v, g.n, PLUS)
        back = contract_set(h, [g.m]).graph
        assert back.n == g.n and back.m == g.m
        assert sorted((min(u, w), max(u, w), s) for u, w, s in back.edges) == \
            sorted((min(u, w), max(u, w), s) for u, w, s in g.edges)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 7), st.data())
def test_contract_set_matches_contracting_one_edge_at_a_time(n, data):
    # multigraphs with loops and parallel edges of both signs, and any edge
    # subset: the set's own loops, edges that become loops as it closes
    # cycles, and negative edges that switch a whole class all occur
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.sampled_from((PLUS, MINUS)))
    g = SignedGraph(n, tuple(data.draw(st.lists(pair, max_size=12))))
    es = data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
    got, want = contract_set(g, es), reference_contract_set(g, es)
    assert got.graph == want.graph
    assert got.vertex_map == want.vertex_map
    assert got.edge_map == want.edge_map
    assert got.switch_parity == want.switch_parity
