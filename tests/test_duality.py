"""Embeddings, face tracing, oriented duals and the coloring/flow transfer."""

import random

import pytest

from helpers import (coloring_from_flow, orientable_double_cover,
                     random_elem, random_fbar, relabelled)
from sgflow.core import DeskScaleError, PLUS, SignedGraph, min_negative_edges
from sgflow.duality import (PLANE, EmbeddedGraph, _isomorphisms,
                            flow_from_coloring, format_emb,
                            k6_projective_embedding, match_dual,
                            oriented_dual, parse_emb, trace_faces)
from sgflow.flows import connect, verify_avoidance
from sgflow.generators import canonical_ps, random_cubic_3connected
from sgflow.groups import is_flow, parse_group


def planar_k4_embedding() -> EmbeddedGraph:
    # K4 drawn with vertex 3 inside the triangle 0,1,2
    g = SignedGraph(4, ((0, 1, PLUS), (1, 2, PLUS), (0, 2, PLUS),
                        (0, 3, PLUS), (1, 3, PLUS), (2, 3, PLUS)))
    # counterclockwise rotations from a straight-line drawing
    rotation = (
        (0, 6, 4),    # at 0: towards 1, 3, 2
        (2, 8, 1),    # at 1: towards 2, 3, 0
        (5, 10, 3),   # at 2: towards 0, 3, 1
        (11, 7, 9),   # at 3: towards 2, 0, 1
    )
    return EmbeddedGraph(g, rotation, (PLUS,) * 6, PLANE)


def test_planar_k4_has_four_faces():
    eg = planar_k4_embedding()
    faces = trace_faces(eg)
    assert len(faces) == 4 == eg.expected_faces()
    assert sorted(len(f) for f in faces) == [3, 3, 3, 3]


def test_projective_k6_has_ten_triangular_faces():
    eg = k6_projective_embedding()
    faces = trace_faces(eg)
    assert len(faces) == 10 == eg.expected_faces()
    assert all(len(f) == 3 for f in faces)


def test_oriented_dual_of_projective_k6_is_petersen_like():
    d = oriented_dual(k6_projective_embedding())
    g = d.graph
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(g.n))
    # the dual signature is unbalanced and not 1-unbalanced
    assert min_negative_edges(g, budget=2) is None


def test_match_dual_identifies_canonical_labelling():
    dual, to = match_dual(k6_projective_embedding(), canonical_ps())
    assert sorted(to) == list(range(15))
    for e in range(15):
        assert dual.graph.edges[e] == canonical_ps().edges[to[e]]


def test_match_dual_folds_relabelling_and_switching_into_one_sign():
    # edges stored the other way round and switched vertices (flipped faces)
    # reach the projective route only through dual.direction
    eg = k6_projective_embedding()
    rng = random.Random(61)
    for _ in range(50):
        g = relabelled(canonical_ps(), rng)
        dual, to = match_dual(eg, g)
        assert sorted(to) == list(range(g.m))
        for e in range(g.m):
            assert dual.graph.edges[e] == g.edges[to[e]]
        for spec in ("Z6", "Z7"):
            A = parse_group(spec)
            cert = connect(g, A, random_fbar(rng, A, g.m), embedding=eg)
            assert cert.strategy == "projective"
            assert verify_avoidance(g, cert)


def test_match_dual_finds_the_icosahedron_dual_within_budget():
    # the dodecahedron, relabelled and switched at random, matches within
    # 567 search nodes on these draws and 656 on 50 others
    eg = orientable_double_cover(k6_projective_embedding())
    dodecahedron = oriented_dual(eg).graph
    rng = random.Random(71)
    for _ in range(5):
        g = relabelled(dodecahedron, rng)
        dual, to = match_dual(eg, g)
        assert [g.edges[t] for t in to] == list(dual.graph.edges)


def test_isomorphism_search_stops_at_its_budget():
    # two cubic graphs on 20 vertices that are not isomorphic: the whole
    # search visits 264 586 nodes, several times the budget, to say so
    g1, g2 = (random_cubic_3connected(20, random.Random(s)) for s in (0, 1))
    with pytest.raises(DeskScaleError, match="budget of 65536 nodes"):
        next(_isomorphisms(g1, g2), None)


def test_flow_from_coloring_yields_flows():
    eg = k6_projective_embedding()
    d = oriented_dual(eg)
    A = parse_group("Z6")
    rng = random.Random(31)
    for _ in range(100):
        c = [random_elem(rng, A) for _ in range(eg.graph.n)]
        f = flow_from_coloring(eg, d, c, A)
        assert is_flow(d.graph, f, A)


def test_proper_coloring_gives_nowhere_zero_flow():
    eg = k6_projective_embedding()
    d = oriented_dual(eg)
    A = parse_group("Z6")
    c = [(i,) for i in range(6)]  # all colors distinct on K6
    f = flow_from_coloring(eg, d, c, A)
    assert A.zero not in f


def test_coloring_round_trips_through_flows():
    eg = k6_projective_embedding()
    d = oriented_dual(eg)
    A = parse_group("Z7")  # no order-2 elements, so potentials exist
    rng = random.Random(41)
    for _ in range(50):
        c = [random_elem(rng, A) for _ in range(6)]
        shift = A.sub((0,), c[0])
        f = flow_from_coloring(eg, d, c, A)
        c2 = coloring_from_flow(eg, d, f, A)
        # potentials are unique up to a constant shift
        assert [A.add(x, shift) for x in c] == c2


def test_coloring_from_flow_rejects_order_two_groups():
    eg = k6_projective_embedding()
    d = oriented_dual(eg)
    A = parse_group("Z6")
    with pytest.raises(ValueError):
        coloring_from_flow(eg, d, [A.zero] * 15, A)


def test_emb_format_round_trip():
    eg = k6_projective_embedding()
    back = parse_emb(format_emb(eg))
    assert back.rotation == eg.rotation
    assert back.edge_sign == eg.edge_sign
    assert back.surface == eg.surface
    assert back.graph.edges == tuple((u, v, PLUS)
                                     for u, v, _ in eg.graph.edges)


def test_parse_emb_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_emb("emb plane 2 1\nr 1 1 5\nr 2 2\ns 1 +\n")


K6_EMB = format_emb(k6_projective_embedding()).splitlines()


def _emb_with(lines):
    return "\n".join(K6_EMB[:1] + lines + K6_EMB[1:]) + "\n"


@pytest.mark.parametrize("line, why", [
    ("r", "expected 'r <v> <h...>'"),  # used to raise IndexError
    ("s 1 +-", "expected 's <e> <\\+\\|->'"),  # used to read as "-"
    ("r one 1", "invalid literal"),
    ("s 1x +", "invalid literal"),
])
def test_parse_emb_names_the_bad_line(line, why):
    with pytest.raises(ValueError, match=rf"^line 2: {why}"):
        parse_emb(_emb_with([line]))


@pytest.mark.parametrize("head", ["emb projective -1 0", "emb plane 2 -1",
                                  "emb plane x 1"])
def test_parse_emb_rejects_a_bad_header(head):
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_emb(head + "\n")


def test_parse_emb_rejects_a_repeated_sign_line():
    # the last s line of an edge used to win
    first = next(i for i, ln in enumerate(K6_EMB) if ln.startswith("s 3 ")) + 1
    lines = K6_EMB + ["s 3 -"]
    with pytest.raises(ValueError, match=rf"^line {len(lines)}: edge 3 already"
                       rf" has its sign on line {first}$"):
        parse_emb("\n".join(lines) + "\n")
