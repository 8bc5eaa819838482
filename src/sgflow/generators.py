"""Named example graphs and random instance generators.

The Petersen graphs share canonical_ps's labelling: vertices 0-4 the outer
5-cycle and 5-9 the inner pentagram; edges 0-4 the cycle, 5-9 the spokes
and 10-14 the pentagram.  Petersen is the oriented dual of
duality.k6_projective_embedding (`sg gen k6-projective`) up to relabelling
and switching: given that embedding as its hint, flows.connect_projective
finds the match with duality.match_dual, which is how `sg connect --hint`
reaches the projective construction on Petersen.
"""

from __future__ import annotations

import random

from .core import MINUS, PLUS, SignedGraph, is_cubic_3connected


def canonical_ps() -> SignedGraph:
    """Petersen graph: vertices 0-4 an (all-negative) outer 5-cycle,
    vertices 5-9 the inner pentagram, positive spokes.  Edges 0-4 cycle,
    5-9 spokes, 10-14 pentagram."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, MINUS))
    for i in range(5):
        edges.append((i, 5 + i, PLUS))
    for i in range(5):
        edges.append((5 + i, 5 + (i + 2) % 5, PLUS))
    return SignedGraph(10, tuple(edges))


def petersen(all_positive: bool = False) -> SignedGraph:
    """Canonical Petersen labelling; negative outer 5-cycle unless
    all_positive is set (see canonical_ps for the edge layout)."""
    g = canonical_ps()
    if all_positive:
        return g.with_signs([PLUS] * g.m)
    return g


def petersen_2neg() -> SignedGraph:
    """Petersen with exactly two negative edges: one on the outer 5-cycle
    and one on the inner pentagram -- two vertex-disjoint negative cycles."""
    g = petersen(all_positive=True)
    signs = [PLUS] * g.m
    signs[0] = MINUS  # outer edge (0,1)
    signs[10] = MINUS  # pentagram edge (5,7)
    return g.with_signs(signs)


def negsun(n: int) -> SignedGraph:
    from .structures import build_negative_sun

    return build_negative_sun(n)[0]


def k4_negative_triangle() -> SignedGraph:
    """K4 with one all-negative triangle (edges among vertices 0,1,2)."""
    edges = [
        (0, 1, MINUS), (1, 2, MINUS), (0, 2, MINUS),
        (0, 3, PLUS), (1, 3, PLUS), (2, 3, PLUS),
    ]
    return SignedGraph(4, tuple(edges))


def k4() -> SignedGraph:
    """All-positive K4."""
    edges = [(0, 1, PLUS), (1, 2, PLUS), (0, 2, PLUS),
             (0, 3, PLUS), (1, 3, PLUS), (2, 3, PLUS)]
    return SignedGraph(4, tuple(edges))


# the graphs `sg gen` writes by name (negsun takes a size, and k6-projective
# is an embedding rather than a graph, so the CLI handles those two itself)
GENERATORS = {
    "petersen-ps": canonical_ps,
    "petersen-2neg": petersen_2neg,
    "k4-negtri": k4_negative_triangle,
}


# draws before random_cubic_3connected gives up
MAX_TRIES = 2000


def random_cubic_3connected(n: int, rng: random.Random) -> SignedGraph:
    """Random simple cubic 3-connected signed graph on n vertices (n even),
    by repeated perfect-matching completion of a random Hamiltonian cycle."""
    if n % 2 or n < 4:
        raise ValueError("need even n >= 4")
    for _ in range(MAX_TRIES):
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(n):
            a, b = order[i], order[(i + 1) % n]
            edges.add((min(a, b), max(a, b)))
        # random perfect matching on the cycle's chords
        verts = list(range(n))
        rng.shuffle(verts)
        ok = True
        matched = []
        pool = set(verts)
        while pool:
            a = min(pool)
            pool.discard(a)
            cands = [b for b in pool if (min(a, b), max(a, b)) not in edges]
            if not cands:
                ok = False
                break
            b = rng.choice(cands)
            pool.discard(b)
            matched.append((min(a, b), max(a, b)))
        if not ok:
            continue
        edges |= set(matched)
        signs = [rng.choice((PLUS, MINUS)) for _ in edges]
        g = SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(sorted(edges), signs)))
        if is_cubic_3connected(g):
            return g
    raise RuntimeError(f"could not generate a cubic 3-connected graph on {n} vertices")
