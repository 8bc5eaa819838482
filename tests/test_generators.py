"""Named example graphs and the random cubic generator."""

import random

import pytest

from helpers import components
from sgflow.core import MINUS, edge_connectivity, is_balanced, is_k_unbalanced
from sgflow.generators import (GENERATORS, k4, k4_negative_triangle, negsun,
                               petersen, petersen_2neg,
                               random_cubic_3connected)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(g.n))
    assert edge_connectivity(g) == 3
    assert is_k_unbalanced(g, 2)
    assert is_balanced(petersen(all_positive=True)).balanced


def test_petersen_2neg_signs():
    g = petersen_2neg()
    assert [e for e in range(g.m) if g.sigma(e) == MINUS] == [0, 10]
    assert is_k_unbalanced(g, 2)


def test_negsun_shape():
    g = negsun(4)
    assert g.n == 8 and g.m == 8
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1, 1, 1, 1, 3, 3, 3, 3]
    assert not is_balanced(g).balanced


def test_k4_variants():
    assert is_balanced(k4()).balanced
    g = k4_negative_triangle()
    assert [e for e in range(g.m) if g.sigma(e) == MINUS] == [0, 1, 2]
    assert edge_connectivity(g) == 3
    assert is_k_unbalanced(g, 2)


def test_generator_table_is_consistent():
    for name, make in GENERATORS.items():
        g = make()
        assert g.n >= 4 and len(components(g)) == 1, name


def test_random_cubic_3connected_properties():
    rng = random.Random(13)
    for n in (8, 10, 12):
        g = random_cubic_3connected(n, rng)
        assert g.n == n
        assert all(g.degree(v) == 3 for v in range(n))
        assert edge_connectivity(g) >= 3
    # signs are drawn at random, so redrawing soon gives an unbalanced graph
    assert any(not is_balanced(random_cubic_3connected(10, rng)).balanced
               for _ in range(20))


def test_random_cubic_generator_is_seed_deterministic():
    g1 = random_cubic_3connected(10, random.Random(99))
    g2 = random_cubic_3connected(10, random.Random(99))
    assert g1.edges == g2.edges


def test_random_cubic_rejects_odd_sizes():
    with pytest.raises(ValueError):
        random_cubic_3connected(9, random.Random(0))
