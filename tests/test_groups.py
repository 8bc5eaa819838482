"""Finite abelian groups, edge maps, boundaries and flow predicates."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (ReferenceGroup, random_connected_graph, random_elem,
                     random_fbar, reference_boundary, reference_is_A_boundary,
                     signed_multigraphs)
from sgflow import flows
from sgflow.core import MINUS, PLUS, SignedGraph
from sgflow.duality import k6_projective_embedding
from sgflow.generators import petersen, petersen_2neg
from sgflow.groups import (AbelianGroup, AvoidanceCertificate, boundary,
                           format_map, integer_boundary, is_flow, is_prime,
                           minimal_subgroup, parse_group, parse_map)
from sgflow.oracle import _group_codes

# cyclic groups, which compute on one coordinate, and products
ARITHMETIC_GROUPS = ("Z2", "Z3", "Z5", "Z6", "Z7", "Z8", "Z9", "Z11", "Z13",
                     "Z1000", "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2")


def test_parse_group_specs():
    assert parse_group("Z6").factors == (6,)
    assert parse_group("Z2xZ2xZ2").factors == (2, 2, 2)
    assert str(parse_group("Z2xZ4")) == "Z2xZ4"
    with pytest.raises(ValueError):
        parse_group("Q8")


def test_groups_are_immutable_values():
    A, B = parse_group("Z2xZ4"), AbelianGroup((2, 4))
    assert A is not B and A == B and hash(A) == hash(B)
    assert A != parse_group("Z4xZ2") and A != parse_group("Z8")
    assert len({A, B, parse_group("Z8")}) == 2
    C = AbelianGroup((6,))
    assert C == parse_group("Z6") and hash(C) == hash(parse_group("Z6"))
    for G in (A, C):
        for name in ("factors", "zero", "order", "_cyclic", "new"):
            with pytest.raises(AttributeError):
                setattr(G, name, (8,))
    with pytest.raises(ValueError):
        AbelianGroup((1,))


@st.composite
def groups_with_elements(draw):
    A = parse_group(draw(st.sampled_from(ARITHMETIC_GROUPS)))
    elem = st.tuples(*(st.integers(0, n - 1) for n in A.factors))
    return A, draw(elem), draw(elem), draw(st.lists(elem, max_size=6))


@settings(max_examples=300, deadline=None)
@given(groups_with_elements(), st.integers(-20, 20),
       st.lists(st.integers(-2, 1001), max_size=4).map(tuple))
def test_group_arithmetic_matches_the_coordinate_wise_reference(case, k,
                                                                other):
    A, a, b, items = case
    R = ReferenceGroup(A.factors)
    assert A.zero == R.zero
    assert A.add(a, b) == R.add(a, b)
    assert A.sub(a, b) == R.sub(a, b)
    assert A.neg(a) == R.neg(a)
    assert A.smul(k, a) == R.smul(k, a)
    assert A.sum(items) == R.sum(items)
    assert A.contains(a) and R.contains(a)
    assert A.contains(other) == R.contains(other)


@pytest.mark.parametrize("spec", ["Z2", "Z6", "Z11", "Z1000"])
def test_a_cyclic_group_contains_only_its_residues(spec):
    A = parse_group(spec)
    n = A.order
    assert A.contains((0,)) and A.contains((n - 1,))
    for x in ((), (0, 0), (n,), (-1,)):
        assert not A.contains(x)


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs(), st.sampled_from(ARITHMETIC_GROUPS),
       st.randoms(use_true_random=False))
@example(SignedGraph(3, ()), "Z6", random.Random(0))
@example(SignedGraph(3, ((0, 0, PLUS), (0, 0, MINUS), (0, 1, MINUS),
                         (1, 1, MINUS))), "Z2xZ4", random.Random(1))
def test_boundary_matches_the_tuple_wise_reference(g, spec, rng):
    # loops of both signs, isolated vertices and m = 0 all occur
    A = parse_group(spec)
    f = random_fbar(rng, A, g.m)
    ref = reference_boundary(g, f, A)
    assert boundary(g, f, A) == ref
    assert is_flow(g, f, A) == all(b == A.zero for b in ref)


@pytest.mark.parametrize("spec,graph,hint", [
    ("Z6", petersen, False), ("Z2xZ2xZ2", petersen, False),
    ("Z9", petersen, False), ("Z3xZ3", petersen, False),
    ("Z11", petersen_2neg, False), ("Z13", petersen_2neg, False),
    ("Z6", petersen, True), ("Z5", petersen, False)])
def test_is_flow_agrees_with_the_reference_on_connect_flows(spec, graph,
                                                             hint):
    g, A = graph(), parse_group(spec)
    rng = random.Random(spec)
    emb = k6_projective_embedding() if hint else None
    nonzero = [x for x in A.elements() if x != A.zero]
    for _ in range(3):
        f = flows.connect(g, A, random_fbar(rng, A, g.m), emb).flow
        assert is_flow(g, f, A)
        assert reference_boundary(g, f, A) == [A.zero] * g.n
        # moving one edge's value breaks the flow at both its ends
        moved = list(f)
        e = rng.randrange(g.m)
        moved[e] = A.add(f[e], rng.choice(nonzero))
        assert not is_flow(g, moved, A)
        assert boundary(g, moved, A) == reference_boundary(g, moved, A)


def test_fresh_avoidance_certificates_own_their_artifacts():
    A = parse_group("Z5")
    one, two = (AvoidanceCertificate("oracle", A, None, [A.zero])
                for _ in range(2))
    one.artifacts["seed"] = "1"
    assert two.artifacts == {} and one.artifacts is not two.artifacts


def test_group_arithmetic():
    A = parse_group("Z2xZ4")
    assert A.order == 8
    assert A.add((1, 3), (1, 2)) == (0, 1)
    assert A.neg((1, 3)) == (1, 1)
    assert A.smul(-3, (1, 1)) == (1, 1)
    assert A.sum([(1, 1), (1, 2), (0, 3)]) == (0, 2)


def test_halving_preimages():
    # the search kernel's rows of every x with 2 x = r, in element order
    def halvings(A, r):
        codes = _group_codes(A)
        return [codes.elem[x] for x in codes.solve[2][codes.code[r]]]

    Z4 = parse_group("Z4")
    assert halvings(Z4, (2,)) == [(1,), (3,)]
    V = parse_group("Z2xZ2")
    assert halvings(V, (0, 0)) == sorted(V.elements())
    assert halvings(V, (1, 0)) == []


def test_is_prime():
    assert [n for n in range(2, 16) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


def test_minimal_subgroup_of_z6():
    A = parse_group("Z6")
    ms = minimal_subgroup(A)
    assert sorted(ms.elements) == [(0,), (3,)]  # the order-2 subgroup
    assert ms.quotient.order == 3
    for a in A.elements():
        assert ms.same_coset(a, A.add(a, (3,)))
        q = ms.project(a)
        assert ms.same_coset(ms.represent(q), a)


def test_minimal_subgroup_of_z2xz2xz2():
    ms = minimal_subgroup(parse_group("Z2xZ2xZ2"))
    assert len(ms.elements) == 2
    assert ms.quotient.order == 4


def test_boundary_sum_is_a_doubled_element():
    rng = random.Random(5)
    for _ in range(200):
        g = random_connected_graph(rng)
        A = parse_group(rng.choice(["Z5", "Z6", "Z2xZ4", "Z9"]))
        f = random_fbar(rng, A, g.m)
        b = boundary(g, f, A)
        assert reference_is_A_boundary(g, A, b)


def test_is_flow_and_nowhere_zero():
    from sgflow.generators import k4_negative_triangle
    from sgflow.oracle import has_nz_A_flow

    g = k4_negative_triangle()
    A = parse_group("Z6")
    f = has_nz_A_flow(g, A)
    assert f is not None
    assert is_flow(g, f, A)
    assert A.zero not in f


def test_integer_boundary_and_k_flow():
    from sgflow.generators import k4
    from sgflow.oracle import has_nz_k_flow

    g = k4()
    assert has_nz_k_flow(g, 3) is None  # positive K4 needs 4 values
    f = has_nz_k_flow(g, 4)
    assert f is not None
    assert integer_boundary(g, f) == [0] * g.n
    assert all(0 < abs(x) < 4 for x in f)


def test_map_format_round_trip():
    rng = random.Random(9)
    A = parse_group("Z2xZ4")
    vals = [random_elem(rng, A) for _ in range(7)]
    assert parse_map(format_map(vals), A, 7) == vals


def test_parse_map_rejects_out_of_range_values():
    A = parse_group("Z4")
    with pytest.raises(ValueError):
        parse_map("0 4\n", A, 1)
    with pytest.raises(ValueError):
        parse_map("3 1\n", A, 2)  # index past the edge count


def test_parse_map_names_the_line_of_a_malformed_integer():
    A = parse_group("Z2xZ4")
    assert parse_map("# 0-based\n0 1,3\n2 0,2\n", A, 3) == [
        (1, 3), (0, 0), (0, 2)]
    for text, line in (("0 1,3\nx 1,1\n", 2), ("0 1,3\n1 1;1\n", 2),
                       ("\n\n0 1,\n", 3)):
        with pytest.raises(ValueError, match=rf"^line {line}: invalid lit"):
            parse_map(text, A, 3)
