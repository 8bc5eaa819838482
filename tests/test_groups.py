"""Finite abelian groups, edge maps, boundaries and flow predicates."""

import random

import pytest

from helpers import random_connected_graph, random_elem, random_fbar
from sgflow.groups import (AbelianGroup, AvoidanceCertificate, boundary,
                           format_map, integer_boundary, is_A_boundary,
                           is_flow, is_prime, minimal_subgroup, parse_group,
                           parse_map)


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
    with pytest.raises(AttributeError):
        A.factors = (8,)
    with pytest.raises(ValueError):
        AbelianGroup((1,))


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
    Z4 = parse_group("Z4")
    assert sorted(Z4.halving_preimages((2,))) == [(1,), (3,)]
    V = parse_group("Z2xZ2")
    assert sorted(V.halving_preimages((0, 0))) == sorted(V.elements())
    assert V.halving_preimages((1, 0)) == []


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
        assert is_A_boundary(A, b) is not None


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
