"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints "criterion N: PASS ..." (or FAIL) on the live terminal via
capsys.disabled(), independent of pytest's capture settings.
"""

import contextlib
import random
import time

from helpers import CUBIC_GRAPHS, host_with_sun, random_connected_graph, \
    random_elem, random_fbar, reference_is_A_boundary, switch_on_set, \
    theorem_instances, uncontract_edges
from sgflow import flows
from sgflow.core import (MINUS, SignedGraph, contract_set,
                         signatures_equivalent)
from sgflow.decompose import (decompose_base_sun, decompose_tree_2base,
                              verify_partition)
from sgflow.duality import (flow_from_coloring, k6_projective_embedding,
                            oriented_dual)
from sgflow.generators import (k4, negsun, petersen, petersen_2neg,
                               random_cubic_3connected)
from sgflow.groups import boundary, integer_boundary, is_flow, parse_group
from sgflow.oracle import has_nz_A_flow, has_nz_k_flow, is_A_connected
from sgflow.structures import all_cycles, as_negative_sun, k_closure


@contextlib.contextmanager
def report(capsys, num, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL - {text}")
        raise
    with capsys.disabled():
        print(f"criterion {num}: PASS - {text}")


def test_criterion_1_sharpness_of_the_flow_bounds(capsys):
    with report(capsys, 1, "negative-outer-cycle Petersen admits no nz flow"
                " over Z2..Z5, Z2xZ2 nor any integer k-flow for k in 2..5"):
        g = petersen()
        for spec in ("Z2", "Z3", "Z4", "Z5", "Z2xZ2"):
            assert has_nz_A_flow(g, parse_group(spec)) is None, spec
        for k in (2, 3, 4, 5):
            assert has_nz_k_flow(g, k) is None, k
        # and the bounds are sharp: order 6 works both ways
        assert has_nz_A_flow(g, parse_group("Z6")) is not None
        assert has_nz_k_flow(g, 6) is not None


def test_criterion_2_composite_order_construction(capsys):
    with report(capsys, 2, "composite constructor: 100/100 verified over Z6"
                " and Z2xZ2xZ2, within 1 s per instance"):
        g = petersen()
        rng = random.Random(2026)
        worst = 0.0
        for spec in ("Z6", "Z2xZ2xZ2"):
            A = parse_group(spec)
            for _ in range(100):
                fb = random_fbar(rng, A, g.m)
                t0 = time.perf_counter()
                cert = flows.connect_composite(g, A, fb)
                worst = max(worst, time.perf_counter() - t0)
                assert flows.verify_avoidance(g, cert)
        assert worst < 1.0, f"slowest instance took {worst:.3f}s"


def test_criterion_3_prime_order_construction(capsys):
    with report(capsys, 3, "prime constructor: 100/100 verified over Z11 and"
                " Z13 on the doubly-negative Petersen, within 5 s each"):
        g = petersen_2neg()
        rng = random.Random(2027)
        worst = 0.0
        for p in (11, 13):
            A = parse_group(f"Z{p}")
            for _ in range(100):
                fb = random_fbar(rng, A, g.m)
                t0 = time.perf_counter()
                cert = flows.connect_prime(g, p, fb)
                worst = max(worst, time.perf_counter() - t0)
                assert flows.verify_avoidance(g, cert)
        assert worst < 5.0, f"slowest instance took {worst:.3f}s"


def test_criterion_4_projective_route_and_coloring_transfer(capsys):
    with report(capsys, 4, "projective constructor: 100/100 over Z6 and Z7;"
                " 1000/1000 random colorings transfer to flows"):
        g = petersen()
        eg = k6_projective_embedding()
        rng = random.Random(2028)
        for spec in ("Z6", "Z7"):
            A = parse_group(spec)
            for _ in range(100):
                fb = random_fbar(rng, A, g.m)
                cert = flows.connect_projective(g, A, fb, eg)
                assert flows.verify_avoidance(g, cert)
        d = oriented_dual(eg)
        A = parse_group("Z6")
        for _ in range(1000):
            c = [random_elem(rng, A) for _ in range(6)]
            f = flow_from_coloring(eg, d, c, A)
            assert is_flow(d.graph, f, A)


def test_criterion_5_decomposition_certificates(capsys):
    with report(capsys, 5, "tree+2-base partitions verify on named and 20"
                " random cubic graphs; base+sun conclusions re-checked"):
        for g in (petersen(all_positive=True), petersen(), k4()):
            ok, why = verify_partition(g, decompose_tree_2base(g))
            assert ok, why
        rng = random.Random(2029)
        for _ in range(20):
            n = rng.choice((8, 10, 12, 14))
            g = random_cubic_3connected(n, rng)
            ok, why = verify_partition(g, decompose_tree_2base(g))
            assert ok, why
        g = petersen_2neg()
        cert = decompose_base_sun(g)
        ok, why = verify_partition(g, cert)
        assert ok, why
        # conclusions, re-derived from scratch:
        every = frozenset(range(g.m))
        # (a) X1 and X2 partition the edge set, with the sun F inside X1
        assert cert.x1 | cert.x2 == every
        assert not (cert.x1 & cert.x2)
        assert cert.f <= cert.x1
        # (b) F is a negative sun
        sun = as_negative_sun(g, cert.f)
        assert sun is not None
        sun.validate(g)
        # (c) the 2-closure of X2, recomputed here, is exactly E - F
        assert k_closure(g, cert.x2, 2).closure == every - cert.f
        # (d) X1 spans the graph and stays connected
        from sgflow.decompose import _spans_and_connected

        assert _spans_and_connected(g, cert.x1)


def test_criterion_6_oracle_constructor_cross_validation(capsys):
    with report(capsys, 6, "every 3-edge-connected 2-unbalanced switching"
                " class of K4, the prism and K3,3 (groups of order 6, 8, 9)"
                " and of the Wagner graph and the cube (Z6) is A-connected"
                " by the exact oracle and gets a verified flow from connect;"
                " negative suns on 6 and 8 vertices are not"):
        wide = ("Z6", "Z8", "Z2xZ4", "Z2xZ2xZ2", "Z9", "Z3xZ3")
        suite = [("k4", 1, wide), ("prism", 6, wide), ("k33", 6, wide),
                 ("wagner", 19, ("Z6",)), ("cube", 19, ("Z6",))]
        for name, classes, groups in suite:
            instances = theorem_instances(CUBIC_GRAPHS[name])
            assert len(instances) == classes, name
            for spec in groups:
                A = parse_group(spec)
                for g in instances:
                    verdict = is_A_connected(g, A)
                    assert verdict.status == "yes", (name, spec, g.edges)
                    assert verdict.checked == A.order ** (g.n - 1) * \
                        len({A.add(a, a) for a in A.elements()})
                    cert = flows.connect(g, A, [A.zero] * g.m)
                    assert cert.flow is not None, (name, spec, g.edges)
                    assert flows.verify_avoidance(g, cert), (name, spec)
        # a sun's pendant vertices have degree 1: no nowhere-zero map has a
        # zero boundary there, so the oracle must refuse it with a witness
        for g in (negsun(3), negsun(4)):
            for spec in wide:
                A = parse_group(spec)
                verdict = is_A_connected(g, A)
                assert verdict.status == "no", (g.n, spec)
                assert reference_is_A_boundary(g, A, verdict.witness_beta)


def test_criterion_7_property_suites(capsys):
    with report(capsys, 7, "property suites: switching involution and"
                " equivalence (1e4), boundary sums (1e4), closure label"
                " independence (1e3), uncontract/contract inversion (1e3),"
                " sun-flow band bounds on hosts of size 3..8"):
        rng = random.Random(2030)
        # switching is an involution and preserves the signature class
        for _ in range(10 ** 4):
            g = random_connected_graph(rng, n_lo=3, n_hi=6, extra_hi=3)
            side = {v for v in range(g.n) if rng.random() < 0.5}
            g2 = switch_on_set(g, side)
            assert switch_on_set(g2, side).edges == g.edges
            assert signatures_equivalent(g, g2).equivalent
        # every boundary of an edge map sums to a doubled group element
        for _ in range(10 ** 4):
            g = random_connected_graph(rng, n_lo=3, n_hi=6, extra_hi=3)
            A = parse_group(rng.choice(["Z4", "Z5", "Z6", "Z2xZ4", "Z9"]))
            f = random_fbar(rng, A, g.m)
            b = boundary(g, f, A)
            assert reference_is_A_boundary(g, A, b)
        # the 2-closure does not depend on edge labelling
        for _ in range(10 ** 3):
            g = random_connected_graph(rng, n_lo=4, n_hi=6, extra_hi=4)
            seed = {e for e in range(g.m) if rng.random() < 0.5}
            perm = list(range(g.m))
            rng.shuffle(perm)
            g2 = SignedGraph(g.n, tuple(g.edges[perm[j]] for j in range(g.m)))
            seed2 = {j for j in range(g.m) if perm[j] in seed}
            closure2 = {perm[j] for j in k_closure(g2, seed2, 2).closure}
            assert closure2 == set(k_closure(g, seed, 2).closure)
        # uncontraction followed by contraction restores the graph
        done = 0
        while done < 10 ** 3:
            g = random_connected_graph(rng, n_lo=4, n_hi=7, extra_hi=6)
            v = rng.randrange(g.n)
            inc = [e for e in g.incident_edges(v) if not g.is_loop(e)]
            if g.degree(v) < 4 or len(inc) < 2:
                continue
            e, f = rng.sample(inc, 2)
            back = contract_set(uncontract_edges(g, v, e, f), [g.m]).graph
            assert sorted((min(a, b), max(a, b), s) for a, b, s in back.edges) \
                == sorted((min(a, b), max(a, b), s) for a, b, s in g.edges)
            done += 1
        # sun flows clear the +-3/+-6 band off every non-special sun edge
        A = parse_group("Z11")
        for n in (3, 4, 5, 6, 7, 8):
            g, sun = host_with_sun(n)
            maps = [[A.zero] * g.m] + \
                [random_fbar(rng, A, g.m) for _ in range(10)]
            for fb in maps:
                r = flows.sun_flow(g, sun, 11, fb)
                assert is_flow(g, r.flow, A)
                for e in sun.edge_set:
                    if e == r.e_prime:
                        assert r.flow[e] != fb[e]
                    else:
                        assert r.flow[e] not in flows.forbidden_band(A, fb[e])


def test_criterion_8_three_flows_from_even_supports(capsys):
    with report(capsys, 8, "z2_to_3flow: 200/200 random valid supports give"
                " +-1-on-support 3-flows with independently checked"
                " boundaries"):
        rng = random.Random(2031)
        done = 0
        while done < 200:
            g = random_connected_graph(rng, n_lo=4, n_hi=7, extra_hi=6)
            if g.m > 12:
                continue
            cycles = all_cycles(g)
            if not cycles:
                continue
            sup = set()
            for c in cycles:
                if rng.random() < 0.5:
                    sup ^= set(c.edges)
            if not sup:
                continue
            if sum(1 for e in sup if g.sigma(e) == MINUS) % 2:
                continue
            carrier = set(range(g.m))
            psi = flows.z2_to_3flow(g, sup, carrier)
            assert all(abs(psi[e]) == 1 for e in sup)
            assert all(abs(psi[e]) <= 2 for e in carrier)
            assert integer_boundary(g, psi) == \
                [0] * g.n
            done += 1
