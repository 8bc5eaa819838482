"""Edge-partition certificates: spanning tree + 2-base, base + sun, general."""

import itertools
import random
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import (CUBIC_GRAPHS, circular_ladder, connected_multigraphs,
                     cubic_2unbalanced, graphs_with_edge_sets, induced_edges,
                     joined_prisms, prime_cubic_instance,
                     reference_check_working_partition,
                     reference_has_two_disjoint_cycles,
                     reference_improving_path,
                     reference_is_2_connected_edge_set,
                     reference_plane_with_degree_2_outside,
                     reference_violating_balanced_cut,
                     signed_cubic_3connected, signed_multigraphs,
                     spy_on_labelling, switching_classes, theorem_instances)
from sgflow import decompose, structures
from sgflow.core import (MINUS, PLUS, HypothesisError, SignedGraph,
                         _cut_labels, _negative_xor, is_balanced,
                         is_cubic_3connected, is_cyclically_k_edge_connected,
                         unmet_hypothesis)
from sgflow.decompose import (BASE_SUN, GENERAL, TREE_2BASE,
                              PartitionCertificate, WorkingPartition,
                              _is_2_connected_edge_set, _label_span_has,
                              _plane_with_degree_2_outside,
                              check_working_partition, decompose_base_sun,
                              decompose_general, decompose_tree_2base,
                              format_certificate, has_two_disjoint_cycles,
                              improving_path, parse_certificate,
                              verify_partition, violating_balanced_cut)
from sgflow.generators import (k4, k4_negative_triangle, negsun, petersen,
                               petersen_2neg, random_cubic_3connected)
from sgflow.structures import as_negative_sun, k_closure, order_cycle


def test_tree_2base_on_named_graphs():
    for g in (petersen(all_positive=True), petersen(), k4()):
        cert = decompose_tree_2base(g)
        ok, why = verify_partition(g, cert)
        assert ok, why
        assert len(cert.x1) == g.n - 1  # spanning tree
        assert k_closure(g, cert.x2, 2).closure == frozenset(range(g.m))
        assert cert.x1 | cert.x2 == frozenset(range(g.m))
        assert not (cert.x1 & cert.x2)


def test_tree_2base_on_random_cubic_graphs():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.choice((8, 10, 12, 14))
        g = random_cubic_3connected(n, rng)
        cert = decompose_tree_2base(g)
        ok, why = verify_partition(g, cert)
        assert ok, why


def test_base_sun_on_doubly_negative_petersen():
    g = petersen_2neg()
    cert = decompose_base_sun(g)
    ok, why = verify_partition(g, cert)
    assert ok, why
    sun = as_negative_sun(g, cert.f)
    assert sun is not None
    sun.validate(g)
    # the 2-closure of X2 recovers everything outside the sun
    closure = k_closure(g, cert.x2, 2).closure
    assert closure == frozenset(range(g.m)) - cert.f


def test_general_decomposition_on_named_graphs():
    for g in (petersen(), petersen_2neg(), k4_negative_triangle()):
        cert = decompose_general(g)
        ok, why = verify_partition(g, cert)
        assert ok, why


@pytest.mark.parametrize("g", [petersen(), petersen_2neg(), k4(),
                               petersen(all_positive=True)],
                         ids=["petersen", "petersen-2neg", "k4",
                              "petersen-positive"])
def test_general_decomposition_scans_the_2_closure_once(monkeypatch, g):
    # the tree-2base and base-sun certificates it wraps, and its middle
    # branch's F, come with X2's 2-closure, which its check scanned again
    calls, closure = [], decompose.k_closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(decompose, "k_closure", counted)
    cert = decompose_general(g)
    assert len(calls) == 1
    monkeypatch.undo()
    assert verify_partition(g, cert) == (True, "")
    assert cert.steps == k_closure(g, cert.x2, 2).steps


def test_general_decomposition_checks_cyclic_connectivity_first():
    # the cycle space has dimension 22, over the listing limit; the 3-cut
    # between the two prisms is bad input, found without listing cycles
    g = joined_prisms(11)
    assert (g.n, g.m) == (42, 63)
    with pytest.raises(ValueError, match="not cyclically 4-edge-connected"):
        decompose_general(g)


def test_certificate_text_round_trip():
    g = petersen_2neg()
    for decomp in (decompose_tree_2base, decompose_base_sun,
                   decompose_general):
        cert = decomp(g)
        back = parse_certificate(format_certificate(cert))
        assert back.mode == cert.mode
        assert back.x1 == cert.x1 and back.x2 == cert.x2 and back.f == cert.f
        assert back == cert
        back.f = back.f ^ {0}
        assert back != cert


def test_verifier_rejects_tampered_certificates():
    g = petersen()
    cert = decompose_tree_2base(g)
    e = min(cert.x2)
    cert.x1 = cert.x1 | {e}
    cert.x2 = cert.x2 - {e}
    ok, why = verify_partition(g, cert)
    assert not ok and why


# A negative sun F: the negative triangle 0-1-2 (edge 0 negative) with
# pendant edges 3, 4 and 5 to vertices 3, 4 and 5.  With a negative
# triangle on 3, 4, 5 beside it (edges 6-8), X1 = F, X2 its complement
# is a base-sun and a general certificate; each case below breaks one
# condition of verify_partition.
SUN = ((0, 1, MINUS), (1, 2, PLUS), (2, 0, PLUS),
       (0, 3, PLUS), (1, 4, PLUS), (2, 5, PLUS))
F = frozenset(range(6))
TRIANGLE = ((3, 4, PLUS), (4, 5, PLUS), (5, 3, MINUS))
REJECTIONS = [
    # (reason, mode, edges after the sun's, X1, F); X2 is E - X1
    ("", BASE_SUN, TRIANGLE, F, F),
    ("", GENERAL, TRIANGLE, F, F),
    ("F not inside E", BASE_SUN, TRIANGLE, F, {9}),
    ("F not empty", TREE_2BASE, TRIANGLE, F - {0}, {3}),
    ("X1 not spanning tree", TREE_2BASE, TRIANGLE, F, ()),
    # X2 = {1, 4, 5, 7} lies on no positive cycle it could grow by
    ("2-closure of X2 is not E", TREE_2BASE, TRIANGLE, {0, 2, 3, 6, 8}, ()),
    ("X1 not a connected base", BASE_SUN, TRIANGLE, F - {0}, F),
    ("F is not a negative sun", BASE_SUN, TRIANGLE, F, ()),
    # X1 reaches vertex 3 through a new vertex 6, not by F's edge 3
    ("F not contained in X1", BASE_SUN, TRIANGLE + ((0, 6, PLUS), (6, 3, PLUS)),
     F - {3} | {9, 10}, F),
    # edge 9 and F's edge 3 make a positive digon, so the closure takes 3
    ("2-closure of X2 is not E - F", BASE_SUN, TRIANGLE + ((0, 3, PLUS),), F,
     F),
    ("2-closure of X2 not 2-connected", BASE_SUN,
     ((3, 4, PLUS), (3, 4, PLUS), (4, 5, PLUS), (4, 5, PLUS)), F, F),
    ("X2 balanced", BASE_SUN, TRIANGLE[:2] + ((5, 3, PLUS),), F, F),
    ("X1 not spanning/connected", GENERAL, TRIANGLE, (), ()),
    ("X1 contains no connected base (balanced)", GENERAL, TRIANGLE, F - {0},
     ()),
    ("F is not a degenerate negative sun", GENERAL, TRIANGLE, F, {3}),
    ("2-closure of X2 is not E - F", GENERAL, TRIANGLE, F, ()),
    ("unknown mode bogus", "bogus", TRIANGLE, F, F),
]


@pytest.mark.parametrize("reason, mode, extra, x1, f", REJECTIONS,
                         ids=[f"{case[1]}: {case[0] or 'accepted'}"
                              for case in REJECTIONS])
def test_verifier_names_each_rejection(reason, mode, extra, x1, f):
    edges = SUN + extra
    g = SignedGraph(1 + max(max(u, v) for u, v, _ in edges), edges)
    x1 = frozenset(x1)
    cert = PartitionCertificate(mode, x1, frozenset(range(g.m)) - x1,
                                frozenset(f))
    assert verify_partition(g, cert) == (not reason, reason)


@pytest.mark.parametrize("x1", [F, frozenset()], ids=["overlap", "gap"])
def test_verifier_rejects_a_split_that_is_no_partition(x1):
    cert = PartitionCertificate(GENERAL, x1, F - {0})
    assert verify_partition(SignedGraph(6, SUN), cert) == (
        False, "X1, X2 do not partition E")


def test_general_decomposition_blames_a_short_positive_cycle():
    # K3,3 has no signing without a positive 4-cycle; the no-two-disjoint-
    # cycles branch leaves an F that is no degenerate negative sun, which
    # the precondition's witness explains
    g = random_cubic_3connected(6, random.Random(0))
    with pytest.raises(ValueError, match="^positive cycle of length 4: "):
        decompose_general(g)


def test_general_decomposition_passes_a_broken_invariant_through(
        monkeypatch):
    def broken(g):
        raise AssertionError("forced")

    monkeypatch.setattr(decompose, "_decompose_general_dispatch", broken)
    # every 5-cycle of the all-negative Petersen graph is negative, and
    # it has no shorter cycle: the precondition holds, so the failure is a
    # bug; Petersen with one negative edge has a positive 5-cycle
    g = petersen(all_positive=True)
    g = SignedGraph(g.n, tuple((u, v, MINUS) for u, v, _ in g.edges))
    with pytest.raises(AssertionError, match="^forced$"):
        decompose_general(g)
    with pytest.raises(ValueError, match="^positive cycle of length 5: "):
        decompose_general(petersen())


def test_two_disjoint_negative_cycles():
    pair = has_two_disjoint_cycles(petersen_2neg(), want_negative=True)
    assert pair is not None
    c1, c2 = pair
    assert c1.sign == MINUS and c2.sign == MINUS
    assert not (set(c1.vertices) & set(c2.vertices))
    assert has_two_disjoint_cycles(petersen(), want_negative=True) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_cubic_3connected(), connected_multigraphs()),
       st.booleans())
def test_two_disjoint_cycles_match_the_pairing(g, want_negative):
    # the multigraphs have vertices of degree 4 and more, where G - E(C)
    # keeps cycles through V(C); in a cubic graph it has none
    pair = has_two_disjoint_cycles(g, want_negative)
    ref = reference_has_two_disjoint_cycles(g, want_negative)
    assert (pair is None) == (ref is None)
    if pair is not None:
        c1, c2 = pair
        assert c1 == ref[0]
        assert not set(c1.vertices) & set(c2.vertices)
        if want_negative:
            assert c1.sign == c2.sign == MINUS


def test_decompose_requires_cubic_3connected_input():
    with pytest.raises(HypothesisError):
        decompose_tree_2base(negsun(4))


@pytest.mark.parametrize("shape", [((0, 1), (0, 1), (0, 1)),
                                   ((0, 0), (0, 1), (1, 1))])
def test_gate_refuses_every_signing_of_a_cubic_graph_on_two_vertices(shape):
    # the theta and the two loops joined by an edge: so a cubic graph that
    # passed connect's gate has at least 4 vertices, where 3-edge-connected
    # means 3-connected, which lets the tree-2base decomposition trust it
    for signs in itertools.product((PLUS, MINUS), repeat=3):
        g = SignedGraph(2, tuple((u, v, s) for (u, v), s in zip(shape, signs)))
        assert unmet_hypothesis(g) is not None


@st.composite
def cubic_multigraphs(draw):
    """A random pairing of the 3n half-edges of n = 2..10 vertices, with
    random signs: cubic, with loops and parallel edges."""
    n = draw(st.sampled_from(range(2, 11, 2)))
    halves = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    signs = draw(st.lists(st.sampled_from((PLUS, MINUS)),
                          min_size=3 * n // 2, max_size=3 * n // 2))
    return SignedGraph(n, tuple((halves[2 * i], halves[2 * i + 1], s)
                                for i, s in enumerate(signs)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(cubic_multigraphs(), signed_cubic_3connected()))
def test_tree_2base_trusts_exactly_what_the_gate_passed(g):
    # a cubic graph past the gate is cubic, 3-connected and unbalanced,
    # so the decomposition handed the gate's result gives the certificate
    # of its own checks
    passed = unmet_hypothesis(g) is None
    event(f"passed the gate: {passed}")
    if passed:
        assert is_cubic_3connected(g) and not is_balanced(g).balanced
        assert decompose_tree_2base(g, checked=True) == decompose_tree_2base(g)


@settings(max_examples=150, deadline=None)
@given(signed_cubic_3connected())
def test_violating_balanced_cut_matches_the_subset_scan(g):
    assert violating_balanced_cut(g) == reference_violating_balanced_cut(g)


@settings(max_examples=300, deadline=None)
@given(connected_multigraphs())
def test_violating_balanced_cut_on_multigraphs_matches_the_subset_scan(g):
    # loops, parallel edges and vertices of any degree: sides of every
    # size, negative loops inside a side, 4-cut sides with more than 8
    # edges
    got = violating_balanced_cut(g)
    event(f"found: {got is not None}")
    assert got == reference_violating_balanced_cut(g)


@pytest.mark.parametrize("name", sorted(CUBIC_GRAPHS))
def test_violating_balanced_cut_on_every_switching_class(name):
    for g in switching_classes(CUBIC_GRAPHS[name]):
        assert violating_balanced_cut(g) == reference_violating_balanced_cut(g)


@settings(max_examples=400, deadline=None)
@given(signed_multigraphs(), st.data())
def test_label_span_balance_matches_the_colouring(g, data):
    # G[X] is balanced exactly when the negative edges' label XOR is in the
    # span of the labels of the edges with an end outside X, on any graph,
    # disconnected ones included
    x = data.draw(st.sets(st.integers(0, g.n - 1)))
    label, _, _ = _cut_labels(g)
    outside = [label[e] for e, (u, v, _) in enumerate(g.edges)
               if not {u, v} <= x]
    want = is_balanced(g, induced_edges(g, x)).balanced
    event(f"balanced: {want}")
    assert _label_span_has(outside, _negative_xor(g, label)) == want


def test_decompose_base_sun_labels_the_graph_once(monkeypatch):
    # the cubic-and-3-connected check and the balanced-cut check share one
    # labelling; each used to label g itself
    labelled = spy_on_labelling(monkeypatch)
    g = petersen_2neg()
    decompose_base_sun(g)
    assert labelled == [g]


@st.composite
def sides_with_edges(draw):
    """A graph on up to 7 vertices and a side X of at least 3 of them:
    either a multigraph of up to 14 edges, loops and parallel edges
    included, or a dense simple graph, where K5 and K3,3 occur."""
    n = draw(st.integers(3, 7))
    end = st.integers(0, n - 1)
    sign = st.sampled_from((PLUS, MINUS))
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(end, end, sign), max_size=14))
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v, draw(sign)) for u, v in draw(st.lists(
            st.sampled_from(pairs), unique=True,
            min_size=min(len(pairs), 8)))]
    x = draw(st.sets(st.integers(0, n - 1), min_size=3))
    return SignedGraph(n, tuple(edges)), frozenset(x)


def _mask(x) -> int:
    return sum(1 << v for v in x)


@settings(max_examples=400, deadline=None)
@given(sides_with_edges())
def test_plane_with_degree_2_outside_matches_networkx(side):
    g, x = side
    inside = induced_edges(g, x)
    want = reference_plane_with_degree_2_outside(g, x, inside)
    degree = {v: sum(u == v for e in inside for u in g.ends(e)) for v in x}
    event(f"at most 8 edges with the apex: "
          f"{len(inside) + sum(d == 2 for d in degree.values()) <= 8}")
    event(f"plane: {want}")
    assert _plane_with_degree_2_outside(g, _mask(x)) == want


def test_plane_with_degree_2_outside_needs_no_networkx(monkeypatch):
    # K3,3 needs the planarity test; a 4-cycle with its apex (4 + 4 edges)
    # is settled by counting
    monkeypatch.setitem(sys.modules, "networkx", None)  # import fails
    k33 = SignedGraph(6, tuple((u, v, PLUS) for u in range(3)
                               for v in range(3, 6)))
    assert not _plane_with_degree_2_outside(k33, _mask(range(6)))
    square = SignedGraph(5, ((0, 1, PLUS), (1, 2, PLUS), (2, 3, PLUS),
                             (3, 0, MINUS), (3, 4, PLUS)))
    assert _plane_with_degree_2_outside(square, _mask(range(4)))


@pytest.mark.parametrize("n", [18, 24])
def test_small_cut_checks_answer_past_sixteen_vertices(n):
    # n > 16 used to be refused with DeskScaleError.  The prism over a
    # cycle has 4-edge cuts around blocks of consecutive rungs and no
    # nontrivial 3-edge cut; the first square is the balanced side the
    # scan meets first, unless every square is negative (answers checked
    # against the scans on 5 and 6 rungs)
    rungs = n // 2
    g = circular_ladder(rungs)
    assert violating_balanced_cut(g) == (frozenset({0, 1, rungs, rungs + 1}),
                                         4)
    assert violating_balanced_cut(circular_ladder(rungs, True)) is None
    assert is_cyclically_k_edge_connected(g, 4)
    assert not is_cyclically_k_edge_connected(g, 5)


# -- working-partition invariants ---------------------------------------------------
# Petersen edges: 0-4 the outer 5-cycle (negative in petersen()) on vertices
# 0-4, 5-9 the spokes i to i + 5, 10-14 the inner pentagram.

OUTER, SPOKES, PENTAGRAM = set(range(5)), set(range(5, 10)), set(range(10, 15))
ALL = OUTER | SPOKES | PENTAGRAM
PETERSEN, POSITIVE = petersen(), petersen(all_positive=True)
K5 = SignedGraph(5, tuple((u, v, PLUS) for u in range(5)
                          for v in range(u + 1, 5)))
K5_HAMILTON = {0, 4, 7, 9, 3}  # 0-1-2-3-4-0; the rest is the 5-cycle 0-2-4-1-3
# a triangle D whose vertex 2 has degree 2, so no edge of C reaches it
SPUR = SignedGraph(5, ((0, 1, PLUS), (1, 2, PLUS), (2, 0, PLUS),
                       (0, 3, PLUS), (1, 3, PLUS), (3, 4, PLUS)))
# the first round on Petersen from the outer cycle: the ear 0-5-7-2
EAR = (5, 10, 7)
EAR_C = ALL - OUTER - set(EAR)
BROKEN_PARTITIONS = [
    # (id, tag, graph, mode, D, A, B, C, last path P, vertices of the old
    # A + B beyond V(D))
    ("partition does not cover E", "partition does not cover E", PETERSEN,
     TREE_2BASE, OUTER, set(), OUTER, SPOKES | PENTAGRAM - {14}, (), ()),
    ("parts overlap", "parts overlap", PETERSEN, TREE_2BASE, OUTER, {0},
     OUTER, SPOKES | PENTAGRAM, (), ()),
    ("(a) A+B not 2-connected", "(a) A+B not 2-connected", PETERSEN,
     TREE_2BASE, OUTER, set(), {0, 1}, ALL - {0, 1}, (), ()),
    # the ear 0-5-7-9-4 leaves the edge 2-7 as a second bridge
    ("(b) C disconnected", "(b) C disconnected", PETERSEN, TREE_2BASE, OUTER,
     {5, 9}, OUTER | {10, 12}, ALL - OUTER - {5, 9, 10, 12}, (5, 10, 12, 9),
     ()),
    ("(b) C degree not in {1,3}", "(b) C degree not in {1,3}", K5,
     TREE_2BASE, K5_HAMILTON, set(), K5_HAMILTON, set(range(10)) - K5_HAMILTON,
     (), ()),
    ("(b) C balanced", "(b) C balanced", PETERSEN, BASE_SUN, OUTER, set(),
     OUTER, SPOKES | PENTAGRAM, (), ()),
    ("(c) A+C not spanning/connected", "(c) A+C not spanning/connected", SPUR,
     TREE_2BASE, {0, 1, 2}, set(), {0, 1, 2}, {3, 4, 5}, (), ()),
    # C is used up, the last ear the chord 7-9, and A holds no outer edge
    ("(c) A+C has no negative cycle", "(c) A+C has no negative cycle",
     PETERSEN, BASE_SUN, OUTER, SPOKES | PENTAGRAM - {10}, OUTER | {10},
     set(), (12,), range(10)),
    # no 5- or 6-cycle has exactly two edges off the outer cycle
    ("(d) 2-closure of B misses part of A",
     "(d) 2-closure of B misses part of A", POSITIVE, TREE_2BASE, OUTER,
     SPOKES | PENTAGRAM, OUTER, set(), (12,), range(10)),
    ("(e) B contains no cycle", "(e) B contains no cycle", POSITIVE,
     TREE_2BASE, OUTER, {3, 4}, {0, 1, 2}, SPOKES | PENTAGRAM, (), ()),
    ("(e) B has no negative cycle", "(e) B has no negative cycle", PETERSEN,
     TREE_2BASE, PENTAGRAM, set(), PENTAGRAM, OUTER | SPOKES, (), ()),
    ("(a) ear inner vertex on A+B", "(a) A+B not 2-connected", PETERSEN,
     TREE_2BASE, OUTER, {5, 7}, OUTER | {10}, EAR_C, EAR, {7}),
    # the closed walk 5-7-9-6-8-5 around the pentagram
    ("(a) ear ends coincide", "(a) A+B not 2-connected", PETERSEN,
     TREE_2BASE, OUTER, {10, 13}, OUTER | {11, 12, 14}, SPOKES,
     (10, 12, 14, 11, 13), {5}),
    ("(e) B lost an edge of D", "(e) B contains no cycle", PETERSEN,
     TREE_2BASE, OUTER, {3, 5, 7}, OUTER - {3} | {10}, EAR_C, EAR, ()),
]


def _partition(g, d, a, b, c, path, more_verts) -> WorkingPartition:
    """The state after P was added: the closure mask holds D and B, all
    of it inside the 2-closure of B unless B lost an edge of D."""
    wp = WorkingPartition(g, order_cycle(g, d))
    wp.a, wp.b, wp.c, wp.path = set(a), set(b), set(c), path
    wp.verts.update(more_verts)
    for e in b:
        wp.closure |= 1 << e
    return wp


@pytest.mark.parametrize("tag,g,mode,d,a,b,c,path,more_verts",
                         [case[1:] for case in BROKEN_PARTITIONS],
                         ids=[case[0] for case in BROKEN_PARTITIONS])
def test_check_working_partition_names_the_broken_invariant(
        tag, g, mode, d, a, b, c, path, more_verts):
    # the peel starts from a negative cycle in sun mode and on an unbalanced
    # graph, and passes that sign down
    want_sign = MINUS if mode == BASE_SUN or not is_balanced(g).balanced \
        else None
    wp = _partition(g, d, a, b, c, path, more_verts)
    with pytest.raises(AssertionError) as info:
        check_working_partition(g, wp, mode, want_sign)
    assert str(info.value) == tag


def _tag(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


class _BothBroken(Exception):
    """Both checks named the same broken invariant."""


@settings(max_examples=40, deadline=None)
@given(signed_cubic_3connected(n_hi=14))
def test_check_working_partition_matches_the_reference_on_peel_rounds(g):
    # every round of the three peels, hypotheses met or not: the witness
    # check and the from-scratch one give the same verdict, and after an
    # accepted round verts is V(A + B) and the closure mask lies inside
    # the 2-closure of B and covers A
    rounds = 0

    def both(g, wp, mode, want_sign):
        nonlocal rounds
        rounds += 1
        tag = _tag(reference_check_working_partition, g, wp, mode, want_sign)
        assert _tag(check_working_partition, g, wp, mode, want_sign) == tag
        if tag is not None:
            raise _BothBroken(tag)
        assert wp.verts == set(decompose._sub_degrees(g, wp.a | wp.b))
        found = {e for e in range(g.m) if wp.closure >> e & 1}
        assert wp.a <= found <= k_closure(g, wp.b, 2).closure

    unbalanced = not is_balanced(g).balanced
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "check_working_partition", both)
        for mode, want_sign in ((TREE_2BASE, MINUS if unbalanced else None),
                                (BASE_SUN, MINUS), (GENERAL, PLUS)):
            try:
                decompose._peel(g, mode, want_sign)
            except (ValueError, _BothBroken):
                pass  # no improving path, or outside the mode's hypotheses
            except AssertionError as exc:
                # a sun mode without a peripheral cycle to start from
                assert str(exc).startswith("no peripheral cycle"), exc
    assert rounds


def test_a_decomposition_computes_one_closure(monkeypatch):
    # the peel extends one closure mask; only _verified calls k_closure,
    # once, and leaves the scan's steps on the certificate
    calls = []

    def counting(g, seed, k):
        calls.append(k)
        return k_closure(g, seed, k)

    monkeypatch.setattr(structures, "k_closure", counting)
    monkeypatch.setattr(decompose, "k_closure", counting)
    for decomposition, g in ((decompose_tree_2base, petersen()),
                             (decompose_base_sun, petersen_2neg())):
        calls.clear()
        assert decomposition(g).steps is not None
        assert calls == [2]


def _check_steps_and_sun(graphs) -> set[str]:
    """Decompose each graph both ways (base-sun where its hypotheses hold)
    and check that the steps and the sun left on the certificate are those
    a fresh 2-closure scan of X2 and a fresh reading of F give; returns
    the modes decomposed."""
    modes = set()
    for g in graphs:
        certs = [decompose_tree_2base(g)]
        try:
            certs.append(decompose_base_sun(g))
        except HypothesisError:
            pass
        for cert in certs:
            modes.add(cert.mode)
            assert cert.steps == k_closure(g, cert.x2, 2).steps
            # the steps absorb X1, or X1 - F around the sun
            assert frozenset().union(*(w for _, w in cert.steps)) \
                == cert.x1 - cert.f
            sun = as_negative_sun(g, cert.f)
            if cert.mode == TREE_2BASE:
                assert cert.sun is None and sun is None
            else:
                assert vars(cert.sun) == vars(sun)
            back = parse_certificate(format_certificate(cert))
            assert back == cert
            assert back.steps is None and back.sun is None
    return modes


@pytest.mark.parametrize("name", sorted(CUBIC_GRAPHS))
def test_certificate_steps_and_sun_agree_on_theorem_instances(name):
    graphs = theorem_instances(CUBIC_GRAPHS[name])
    assert graphs
    assert TREE_2BASE in _check_steps_and_sun(graphs)


@pytest.mark.parametrize("n", range(8, 17, 2))
def test_certificate_steps_and_sun_agree_on_random_cubic_graphs(n):
    # few draws meet the base-sun hypotheses; prime_cubic_instance is the
    # first that does
    graphs = [cubic_2unbalanced(n, seed) for seed in range(4)]
    graphs.append(prime_cubic_instance(n, f"steps-and-sun:{n}"))
    assert _check_steps_and_sun(graphs) == {TREE_2BASE, BASE_SUN}


# -- edge-set helpers against the subgraph-building versions ----------------------

@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_sets())
def test_2_connectivity_of_an_edge_set_matches_the_reference(case):
    # kills a 2-connectivity loop that keeps the removed vertex or its edges
    g, es = case
    assert _is_2_connected_edge_set(g, es) == reference_is_2_connected_edge_set(
        g, es)


@pytest.mark.parametrize("edges,expected", [
    # two digons that share vertex 1, a cut vertex
    (((0, 1), (0, 1), (1, 2), (1, 2)), False),
    # two triangles that share vertex 0, with a loop at that cut vertex
    (((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 0)), False),
    # a triangle with one edge doubled: the digon is a back edge
    (((0, 1), (0, 1), (1, 2), (2, 0)), True),
])
def test_2_connectivity_on_pinned_multigraphs(edges, expected):
    g = SignedGraph(1 + max(max(e) for e in edges),
                    tuple((u, v, PLUS) for u, v in edges))
    assert _is_2_connected_edge_set(g, range(g.m)) is expected
    assert reference_is_2_connected_edge_set(g, range(g.m)) is expected


def _outcome(find, *args):
    try:
        return find(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_sets(), st.booleans())
def test_improving_path_matches_the_reference(case, protect_negative):
    # kills a bridge count that lets two components through
    g, es = case
    assert (_outcome(improving_path, g, es, protect_negative)
            == _outcome(reference_improving_path, g, es, protect_negative))


def test_improving_path_on_peel_states_matches_the_reference(monkeypatch):
    # the random edge sets above almost never keep invariant (b), where a
    # candidate's weight is its length; these are the states _peel meets
    states = []

    def recording(g, c_edges, protect_negative=False):
        path = improving_path(g, c_edges, protect_negative)
        states.append((g, set(c_edges), protect_negative, path))
        return path

    monkeypatch.setattr(decompose, "improving_path", recording)
    for n in range(8, 21, 2):
        for seed in range(3):
            g = cubic_2unbalanced(n, seed)
            decompose_tree_2base(g)
            try:
                decompose_base_sun(g)
            except HypothesisError:
                pass
    assert {protect for _, _, protect, _ in states} == {False, True}
    for g, c_edges, protect_negative, path in states:
        assert path == reference_improving_path(g, c_edges, protect_negative)


def test_improving_path_ranks_bridges_by_edges_and_vertices():
    # paths 0-3-2-5 (edges 3, 1, 4) and 1-4-2-5 (edges 5, 0, 4) both leave
    # three edges: a digon with a pendant edge on three vertices, or a path
    # on four; the bridge on more vertices wins
    g = SignedGraph(6, ((4, 2, PLUS), (2, 3, MINUS), (2, 4, PLUS),
                        (3, 0, PLUS), (5, 2, PLUS), (4, 1, PLUS)))
    assert improving_path(g, set(range(g.m))) == (5, 0, 4)


def test_improving_path_breaks_a_weight_tie_by_length():
    # 5-4-0-6 (edges 7, 2, 6) passes vertex 4 of C-degree 2, so it weighs
    # 3 + 1, as much as 3-1-2-0-6 (edges 3, 4, 0, 6); both leave one bridge
    # of the same size, and the shorter path wins
    g = SignedGraph(7, ((0, 2, MINUS), (0, 2, MINUS), (0, 4, PLUS),
                        (1, 3, MINUS), (1, 2, MINUS), (1, 2, PLUS),
                        (6, 0, MINUS), (5, 4, MINUS)))
    c_edges = set(range(g.m))
    assert improving_path(g, c_edges) == (7, 2, 6)
    assert reference_improving_path(g, c_edges) == (7, 2, 6)
