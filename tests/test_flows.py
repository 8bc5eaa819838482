"""Constructive avoidance flows: circulations, barbells, 3-flow supports,
sun flows and the three constructors behind connect()."""

import random
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from golden.make_golden import PRIME_B1, random_fbar as golden_fbar
from helpers import (cubic_2unbalanced, host_with_sun, prime_cubic_instance,
                     random_connected_base, random_connected_graph,
                     random_elem, random_fbar, reference_collision_support,
                     reference_flow_coeffs_through, reference_sun_return_path,
                     renumbered, signed_cubic_3connected, spy_on_labelling,
                     switch_on_set, unbalance_small_sides)
from sgflow import core, decompose, flows, groups, oracle, structures
from sgflow.core import (MINUS, PLUS, HypothesisError, SignedGraph,
                         contract_set, edge_connectivity, is_k_unbalanced,
                         parse_sg, spanning_forest)
from sgflow.decompose import (decompose_base_sun, has_two_disjoint_cycles,
                              violating_balanced_cut)
from sgflow.duality import k6_projective_embedding, oriented_dual
from sgflow.generators import negsun, petersen, petersen_2neg
from sgflow.groups import boundary, integer_boundary, is_flow, parse_group
from sgflow.structures import (all_cycles, as_negative_sun, cycle_sign,
                               fundamental_cycle)


def test_circulation_on_positive_cycle_has_zero_boundary():
    g = petersen()
    A = parse_group("Z5")
    for c in all_cycles(g):
        if c.sign != PLUS:
            continue
        coeffs = flows.circulation_coeffs(g, c)
        assert set(coeffs) == set(c.edges)
        assert all(abs(x) == 1 for x in coeffs.values())
        f = [A.zero] * g.m
        flows.add_scaled(A, f, coeffs, (2,))
        assert is_flow(g, f, A)


def test_circuit_coeffs_covers_every_edge_outside_a_base():
    g = petersen_2neg()
    A = parse_group("Z11")
    base = random_connected_base(g, random.Random(3))
    outside = sorted(set(range(g.m)) - base)
    for e, coeffs in flows.circuit_coeffs(g, base, outside).items():
        assert coeffs == reference_flow_coeffs_through(g, base | {e}, {e})
        assert coeffs[e] != 0 and set(coeffs) <= base | {e}
        assert all(abs(x) in (1, 2) for x in coeffs.values())
        f = [A.zero] * g.m
        flows.add_scaled(A, f, coeffs, (1,))
        assert is_flow(g, f, A)


def test_barbell_through_both_negative_edges():
    g = petersen_2neg()
    # the outer 5-cycle (negative through edge 0), one spoke and four
    # pentagram edges: edge 10 closes the negative pentagram, so the circuit
    # is a barbell whose joining path is the spoke, edge 5
    base = set(range(5)) | {5} | set(range(11, 15))
    coeffs = flows.circuit_coeffs(g, base, [10])[10]
    assert coeffs == {0: 1, 1: -1, 2: -1, 3: -1, 4: -1, 5: -2, 10: -1,
                      11: 1, 12: 1, 13: 1, 14: 1}
    assert coeffs == reference_flow_coeffs_through(g, base | {10}, {10})
    A = parse_group("Z7")
    f = [A.zero] * g.m
    flows.add_scaled(A, f, coeffs, (3,))
    assert is_flow(g, f, A)


@settings(max_examples=60, deadline=None)
@given(signed_cubic_3connected(), st.randoms(use_true_random=False))
def test_circuit_coeffs_matches_the_cycle_space_scan(g, rng):
    base = random_connected_base(g, rng)
    assume(base is not None)
    outside = sorted(set(range(g.m)) - base)
    circuits = flows.circuit_coeffs(g, base, outside)
    assert list(circuits) == outside
    for e in outside:
        assert circuits[e] == reference_flow_coeffs_through(g, base | {e},
                                                            {e})


def test_circuit_coeffs_refuses_what_is_not_a_connected_base():
    g = petersen_2neg()
    tree = set(range(1, 10))  # a spanning tree without the negative edge
    with pytest.raises(AssertionError, match="not a connected base"):
        flows.circuit_coeffs(g, tree, [10])
    with pytest.raises(AssertionError, match="not a connected base"):
        flows.circuit_coeffs(g, tree | {0}, [0])
    with pytest.raises(AssertionError, match="positive"):
        flows.circuit_coeffs(g, tree | {11}, [12])


def _random_valid_support(rng, max_edges=12):
    """Random (graph, support, carrier) with even support degrees and an
    even number of negative support edges."""
    while True:
        g = random_connected_graph(rng, n_lo=4, n_hi=7, extra_hi=6)
        if g.m > max_edges:
            continue
        carrier = set(range(g.m))
        cycles = [c for c in all_cycles(g)]
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
        return g, sup, carrier


def test_z2_to_3flow_on_random_supports():
    rng = random.Random(61)
    done = 0
    while done < 60:
        g, sup, car = _random_valid_support(rng)
        psi = flows.z2_to_3flow(g, sup, car)
        assert all(abs(psi[e]) == 1 for e in sup)
        assert all(abs(psi[e]) <= 2 for e in car)
        assert all(psi[e] == 0 for e in range(g.m) if e not in car)
        assert integer_boundary(g, psi) == [0] * g.n
        done += 1


def test_z2_to_3flow_rejects_bad_supports():
    g = petersen()
    with pytest.raises(ValueError):
        flows.z2_to_3flow(g, {0}, range(g.m))  # odd degrees
    with pytest.raises(ValueError):
        flows.z2_to_3flow(g, {0, 1}, {0, 1})  # support not a cycle space elem
    # every parity condition holds, but nothing joins the two negative
    # loops, so no 3-flow exists: an input problem, not a bug
    loops = SignedGraph(2, ((0, 0, MINUS), (1, 1, MINUS)))
    with pytest.raises(ValueError, match="no flow"):
        flows.z2_to_3flow(loops, {0, 1}, {0, 1})


def test_prime_route_reports_a_refused_3flow_as_a_bug(monkeypatch):
    # connect falls back to search only on HypothesisError from the prime
    # route; a 3-flow the construction guarantees must not be refused
    # silently
    golden = Path(__file__).resolve().parent / "golden"
    cert = flows.parse_avoidance(
        (golden / "prime-b1-petersen-2neg-Z11-0.cert").read_text())

    def refuse(*args, **kwargs):
        raise ValueError("no flow")

    monkeypatch.setattr(flows, "z2_to_3flow", refuse)
    with pytest.raises(AssertionError, match="z2_to_3flow refused"):
        flows.connect(petersen_2neg(), cert.group, cert.fbar)


def test_prime_route_surfaces_errors_other_than_hypothesis_refusals(
        monkeypatch):
    # only a HypothesisError sends the prime route to search; any other
    # ValueError inside the construction is a bug and must surface
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(flows, "sun_flow", broken)
    A = parse_group("Z11")
    with pytest.raises(ValueError, match="injected") as info:
        flows.connect(petersen_2neg(), A, [A.zero] * 15)
    assert not isinstance(info.value, HypothesisError)


def test_prime_route_falls_back_to_search_on_a_balanced_cut():
    golden = Path(__file__).resolve().parent / "golden"
    g = parse_sg((golden / "cubic10-1-Z11.sg").read_text())
    cert = flows.parse_avoidance((golden / "cubic10-1-Z11.cert").read_text())
    with pytest.raises(HypothesisError, match="balanced side"):
        decompose_base_sun(g)
    back = flows.connect(g, cert.group, cert.fbar)
    assert back.strategy == "oracle"
    assert flows.verify_avoidance(g, back)


def test_forbidden_band_size():
    A = parse_group("Z11")
    assert len(flows.forbidden_band(A, (4,))) == 5
    assert flows.forbidden_band(A, (0,)) == {(0,), (3,), (8,), (6,), (5,)}


def test_sun_flow_clears_the_band_on_sun_edges():
    # all-zero maps and flows have zero boundary on the sun, so they take
    # the zero cases; random maps take the nonzero case
    rng = random.Random(7)
    A = parse_group("Z11")
    for n in range(3, 10):
        g, sun = host_with_sun(n)
        quiet = "zero-odd" if n % 2 else "zero-even"
        flows_on_g = []
        for _ in range(5):
            base = random_connected_base(g, rng)
            f = [A.zero] * g.m
            for w in flows.circuit_coeffs(g, base, sorted(
                    set(range(g.m)) - base)).values():
                flows.add_scaled(A, f, w, random_elem(rng, A))
            flows_on_g.append(f)
        maps = [[A.zero] * g.m] + flows_on_g \
            + [random_fbar(rng, A, g.m) for _ in range(15)]
        cases = set()
        for fb in maps:
            r = flows.sun_flow(g, sun, 11, fb)
            cases.add(r.case)
            beta = boundary(g, fb, A)
            assert r.case == (quiet if all(beta[v] == A.zero for v in
                                           sun.cycle_vertices) else "nonzero")
            assert (r.e_prime is None) == (r.case == "zero-odd")
            if r.e_prime is not None:
                assert r.e_prime in (sun.pendant_edges if r.case == "zero-even"
                                     else sun.cycle_edges)
            assert is_flow(g, r.flow, A)
            for e in sun.edge_set:
                if e == r.e_prime:
                    assert r.flow[e] != fb[e]
                else:
                    assert r.flow[e] not in flows.forbidden_band(A, fb[e])
        assert cases == {quiet, "nonzero"}


def test_sun_flow_requires_a_large_prime():
    g, sun = host_with_sun(4)
    A = parse_group("Z7")
    with pytest.raises(ValueError):
        flows.sun_flow(g, sun, 7, [A.zero] * g.m)


def _return_paths(g, sun):
    """Each sun position's return path as the sun flow chose it while it
    listed every path, and the edge set of the return cycle it closes,
    keyed by the path's (from, to) tips."""
    k = sun.n
    ce, pe, tips = sun.cycle_edges, sun.pendant_edges, sun.pendant_vertices
    paths = {}
    for i in range(k):
        j = (i + 1) % k
        need = g.sigma(pe[i]) * g.sigma(ce[i]) * g.sigma(pe[j])
        path = reference_sun_return_path(g, sun.cycle_vertices, tips[j],
                                         tips[i], need)
        paths[tips[j], tips[i]] = path, frozenset(path).union(
            (pe[i], ce[i], pe[j]))
    return paths


def _sun_cycles(monkeypatch):
    """The edge sets of the return cycles sun_flow circulates on, in the
    order it builds them."""
    cycles = []
    coeffs = flows.circulation_coeffs

    def spy(g, cycle):
        cycles.append(cycle.edge_set)
        return coeffs(g, cycle)

    monkeypatch.setattr(flows, "circulation_coeffs", spy)
    return cycles


@pytest.mark.parametrize("n", [10, 16, 22, 28])
def test_sun_flow_picks_the_shortest_least_return_paths(monkeypatch, n):
    # the first length holding a path of the needed sign gives the path
    # and the flow that the least over every path by (length, edges) gave
    g = prime_cubic_instance(n, f"sun-return-paths:{n}")
    sun = as_negative_sun(g, decompose_base_sun(g).f)
    paths = _return_paths(g, sun)

    def reference_lister(g, edges, ends):
        # one level holding the reference's path, read from the lesser end
        # as core.simple_paths reads it
        a, b = ends
        path = paths[a, b][0]
        yield [(path if a < b else path[::-1], 0)]

    A = parse_group("Z11")
    rng = random.Random(n)
    for fb in [[A.zero] * g.m] + [random_fbar(rng, A, g.m) for _ in range(3)]:
        cycles = _sun_cycles(monkeypatch)
        r = flows.sun_flow(g, sun, 11, fb)
        assert len(cycles) == sun.n
        assert set(cycles) == {cycle for _, cycle in paths.values()}
        monkeypatch.setattr(flows, "simple_paths", reference_lister)
        ref = flows.sun_flow(g, sun, 11, fb)
        monkeypatch.undo()
        assert (r.flow, r.e_prime, r.case) == (ref.flow, ref.e_prime,
                                                ref.case)


def test_sun_flow_reads_no_level_past_its_return_path(monkeypatch):
    # kills a listing of every path before the choice: the tips' ring
    # holds longer paths of both signs
    lister = core.simple_paths
    calls = []  # [edges, ends, levels read]

    def spy(g, edges, ends):
        calls.append([edges, ends, 0])
        for level in lister(g, edges, ends):
            calls[-1][2] += 1
            yield level

    left_unread = 0
    for n in range(3, 10):
        g, sun = host_with_sun(n)
        calls.clear()
        cycles = _sun_cycles(monkeypatch)
        monkeypatch.setattr(flows, "simple_paths", spy)
        flows.sun_flow(g, sun, 11, [(0,)] * g.m)
        monkeypatch.undo()
        # a return cycle is its path and three sun edges
        assert [read for _, _, read in calls] == [len(c) - 3 for c in cycles]
        left_unread += sum(len(list(lister(g, edges, ends))) > read
                           for edges, ends, read in calls)
    assert left_unread


# a cubic 2-unbalanced graph whose one collision edge over Z11 (edge 12,
# index 11) closes a barbell with the base, path included
BARBELL_B1 = SignedGraph(14, (
    (0, 4, 1), (0, 10, -1), (0, 11, 1), (1, 3, -1), (1, 8, -1), (1, 9, -1),
    (2, 3, 1), (2, 5, -1), (2, 11, 1), (3, 6, 1), (4, 9, -1), (4, 13, 1),
    (5, 9, 1), (5, 13, 1), (6, 8, -1), (6, 10, -1), (7, 10, 1), (7, 11, 1),
    (7, 12, -1), (8, 12, -1), (12, 13, 1)))
BARBELL_B1_FBAR = [(x,) for x in (3, 4, 1, 6, 7, 2, 1, 1, 0, 6, 8, 4, 0, 3,
                                  8, 8, 5, 4, 2, 1, 4)]


@pytest.mark.parametrize("case", [*PRIME_B1, "barbell"])
def test_prime_collision_support_matches_the_per_edge_cycles(monkeypatch,
                                                             case):
    if case == "barbell":
        g, fbar = BARBELL_B1, BARBELL_B1_FBAR
    else:
        g = petersen_2neg()
        fbar = golden_fbar(f"prime-b1-petersen-2neg-Z11-{case}",
                           parse_group("Z11"), g.m)
    supports = []
    z2_to_3flow = flows.z2_to_3flow

    def spy(h, support, *rest):
        supports.append(support)
        return z2_to_3flow(h, support, *rest)

    monkeypatch.setattr(flows, "z2_to_3flow", spy)
    cert = flows.connect_prime(g, 11, fbar)
    b1 = [int(e) - 1 for e in cert.artifacts["b1"].split()]
    assert supports == [reference_collision_support(
        g, decompose_base_sun(g).x1, b1)]


def test_connect_composite_on_petersen_variants():
    rng = random.Random(43)
    g = petersen()
    for spec in ("Z6", "Z2xZ2xZ2", "Z9"):
        A = parse_group(spec)
        for _ in range(5):
            fb = random_fbar(rng, A, g.m)
            cert = flows.connect_composite(g, A, fb)
            assert cert.strategy == "composite"
            assert flows.verify_avoidance(g, cert)


def test_connect_composite_zero_map_gives_nowhere_zero_flow():
    g = petersen()
    A = parse_group("Z6")
    cert = flows.connect_composite(g, A, [A.zero] * g.m)
    assert flows.verify_avoidance(g, cert)
    assert A.zero not in cert.flow


def test_connect_composite_rejects_small_or_prime_groups():
    g = petersen()
    with pytest.raises(ValueError):
        flows.connect_composite(g, parse_group("Z2xZ2"), [(0, 0)] * g.m)
    with pytest.raises(ValueError):
        flows.connect_composite(g, parse_group("Z7"), [(0,)] * g.m)


def test_connect_composite_called_directly_checks_its_input():
    # connect hands its gate's result down to the decomposition; a direct
    # call hands none, and a graph that is not cubic is refused
    g = contract_set(petersen(), [0]).graph
    A = parse_group("Z6")
    with pytest.raises(HypothesisError, match="not cubic and 3-connected"):
        flows.connect_composite(g, A, [A.zero] * g.m)


def test_connect_prime_on_doubly_negative_petersen():
    rng = random.Random(53)
    g = petersen_2neg()
    for p in (11, 13):
        A = parse_group(f"Z{p}")
        for _ in range(5):
            fb = random_fbar(rng, A, g.m)
            cert = flows.connect_prime(g, p, fb)
            assert cert.strategy == "prime"
            assert flows.verify_avoidance(g, cert)


def test_connect_prime_rejects_small_primes():
    g = petersen_2neg()
    with pytest.raises(ValueError):
        flows.connect_prime(g, 7, [(0,)] * g.m)


def test_connect_projective_on_petersen():
    rng = random.Random(59)
    g = petersen()
    emb = k6_projective_embedding()
    for spec in ("Z6", "Z7"):
        A = parse_group(spec)
        for _ in range(5):
            fb = random_fbar(rng, A, g.m)
            cert = flows.connect_projective(g, A, fb, emb)
            assert cert.strategy == "projective"
            assert flows.verify_avoidance(g, cert)


def test_connect_projective_meets_an_edge_at_either_end():
    # K6's vertices all have degree 5, so the greedy colours them from 5
    # down to 0; the hint above stores every edge from its lesser end, so
    # each edge's first end is coloured last.  A renumbered hint stores
    # some edges from the greater end, whose second end is coloured last.
    rng = random.Random(61)
    for spec in ("Z6", "Z7"):
        A = parse_group(spec)
        for _ in range(10):
            emb = renumbered(k6_projective_embedding(), rng)
            assert any(u > v for u, v, _ in emb.graph.edges)
            g = oriented_dual(emb).graph
            fb = random_fbar(rng, A, g.m)
            cert = flows.connect_projective(g, A, fb, emb)
            assert cert.strategy == "projective"
            assert flows.verify_avoidance(g, cert)


def test_connect_dispatcher_picks_strategies():
    g = petersen()
    A6 = parse_group("Z6")
    cert = flows.connect(g, A6, [A6.zero] * g.m)
    assert cert.strategy == "composite"
    A11 = parse_group("Z11")
    g2 = petersen_2neg()
    cert = flows.connect(g2, A11, [A11.zero] * g2.m)
    assert cert.strategy == "prime"
    cert = flows.connect(g, A6, [A6.zero] * g.m,
                         embedding=k6_projective_embedding())
    assert cert.strategy == "projective"


def test_connect_falls_back_to_oracle_and_reports_unsat():
    g = petersen()
    A = parse_group("Z5")
    cert = flows.connect(g, A, [A.zero] * g.m)
    assert cert.strategy == "oracle"
    assert cert.flow is None
    assert flows.verify_avoidance(g, cert)


def test_connect_handles_non_cubic_graphs_by_reduction():
    edges = []
    for u in range(5):
        for v in range(u + 1, 5):
            neg = (u, v) in ((0, 1), (1, 2), (0, 2))
            edges.append((u, v, MINUS if neg else PLUS))
    g = SignedGraph(5, tuple(edges))
    rng = random.Random(67)
    A = parse_group("Z6")
    for _ in range(5):
        fb = random_fbar(rng, A, g.m)
        cert = flows.connect(g, A, fb)
        assert flows.verify_avoidance(g, cert)


def test_connect_rejects_graphs_outside_scope():
    A = parse_group("Z6")
    with pytest.raises(HypothesisError):
        flows.connect(negsun(4), A, [A.zero] * 8)  # not 3-edge-connected
    from sgflow.generators import k4

    with pytest.raises(HypothesisError):
        flows.connect(k4(), A, [A.zero] * 6)  # balanced


@pytest.mark.parametrize("fbar, edge", [([(7,)] * 15, 1),
                                        ([(1, 2)] * 15, 1),
                                        ([(1,)] * 4 + [(-1,)] * 11, 5)])
def test_connect_refuses_forbidden_values_outside_the_group(monkeypatch, fbar,
                                                            edge):
    # the first two used to run the whole composite construction and fail
    # only in its last check, "certificate holds a value outside Z6"
    def undecomposed(g):
        raise AssertionError("decomposed a graph for a bad forbidden map")

    monkeypatch.setattr(flows, "decompose_tree_2base", undecomposed)
    with pytest.raises(ValueError, match=f"fbar of edge {edge} is .* not an"
                                         " element of Z6"):
        flows.connect(petersen(), parse_group("Z6"), fbar)


def test_certificate_text_round_trip():
    g = petersen()
    A = parse_group("Z6")
    rng = random.Random(71)
    fb = random_fbar(rng, A, g.m)
    cert = flows.connect(g, A, fb)
    back = flows.parse_avoidance(flows.format_avoidance(cert))
    assert back.strategy == cert.strategy
    assert back.group == cert.group
    assert back.flow == cert.flow and back.fbar == cert.fbar
    assert back.e_prime == cert.e_prime
    assert back.artifacts == cert.artifacts
    assert back == cert
    assert flows.verify_avoidance(g, back)
    back.artifacts["extra"] = ""
    assert back != cert


def test_verifier_rejects_tampered_flows():
    g = petersen()
    A = parse_group("Z6")
    cert = flows.connect(g, A, [A.zero] * g.m)
    cert.flow[0] = A.zero  # zero value breaks avoidance of fbar = 0
    assert not flows.verify_avoidance(g, cert)


def _petersen_cert_lines():
    g = petersen()
    A = parse_group("Z6")
    cert = flows.connect(g, A, random_fbar(random.Random(72), A, g.m))
    return flows.format_avoidance(cert).splitlines()


def _line_of(lines, prefix):
    return next(i for i, ln in enumerate(lines) if ln.startswith(prefix))


def test_parse_avoidance_rejects_duplicate_lines():
    lines = _petersen_cert_lines()
    for key in ("fbar 3 ", "f 3 "):
        i = _line_of(lines, key)
        text = "\n".join(lines[:i + 1] + [lines[i]] + lines[i + 1:]) + "\n"
        with pytest.raises(ValueError, match=rf"^line {i + 2}: .*line {i + 1}"):
            flows.parse_avoidance(text)


def test_parse_avoidance_rejects_a_repeated_aux_key():
    # the last aux line of a key used to win silently
    lines = _petersen_cert_lines()
    i = _line_of(lines, "aux phi1 ")
    text = "\n".join(lines + ["aux phi1 junk"]) + "\n"
    with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: .*aux phi1"
                       rf" already given on line {i + 1}$"):
        flows.parse_avoidance(text)


def test_parse_avoidance_rejects_missing_edge_indices():
    lines = _petersen_cert_lines()
    i = _line_of(lines, "fbar 3 ")
    with pytest.raises(ValueError, match=r"^line \d+: .*edge 3 has no fbar"):
        flows.parse_avoidance("\n".join(lines[:i] + lines[i + 1:]) + "\n")
    i = _line_of(lines, "f 3 ")
    fbar3 = _line_of(lines, "fbar 3 ") + 1
    with pytest.raises(ValueError, match=rf"^line {fbar3}: edge 3 .*no f line"):
        flows.parse_avoidance("\n".join(lines[:i] + lines[i + 1:]) + "\n")


def test_parse_avoidance_rejects_flow_past_the_last_edge():
    lines = _petersen_cert_lines()
    i = _line_of(lines, "f 15 ")
    text = "\n".join(lines[:i + 1] + ["f 16 0"] + lines[i + 1:]) + "\n"
    with pytest.raises(ValueError, match=rf"^line {i + 2}: f of edge 16"):
        flows.parse_avoidance(text)


def test_parse_avoidance_rejects_values_outside_the_group():
    lines = _petersen_cert_lines()
    i = _line_of(lines, "f 1 ")
    value = int(lines[i].split()[2])
    lines[i] = f"f 1 {value + 6}"  # the same residue mod 6, out of range
    with pytest.raises(ValueError, match=rf"^line {i + 1}: f of edge 1 .*Z6"):
        flows.parse_avoidance("\n".join(lines) + "\n")


def test_verifier_rejects_values_outside_the_group():
    g = petersen()
    A = parse_group("Z6")
    cert = flows.connect(g, A, [A.zero] * g.m)
    cert.fbar[0] = (cert.flow[0][0] + 6,)  # equals f(0) in Z6
    with pytest.raises(ValueError, match="outside Z6"):
        flows.verify_avoidance(g, cert)


@pytest.mark.parametrize("spec", ["Z6", "Z8", "Z11"])
def test_connect_searches_on_a_single_vertex(spec):
    # two negative loops meet connect's hypotheses, but cubicize needs two
    # vertices: the constructive groups go to the exhaustive search too
    g = SignedGraph(1, ((0, 0, MINUS), (0, 0, MINUS)))
    A = parse_group(spec)
    cert = flows.connect(g, A, [A.zero] * g.m)
    assert cert.strategy == "oracle" and cert.flow is not None
    assert flows.verify_avoidance(g, cert)


# Composite groups only: connect constructs its flow there, or searches on a
# single vertex, so no slow exhaustive "no" can come up.
LOOP_GROUPS = ("Z6", "Z8", "Z9", "Z2xZ2xZ2")


@st.composite
def theorem_multigraphs(draw):
    """A multigraph that meets connect's hypotheses, 3-edge-connected and
    2-unbalanced, on n <= 6 vertices and m <= 12 edges; loops of both
    signs and parallel edges occur."""
    n = draw(st.integers(1, 6))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                          min_size=-(-3 * n // 2), max_size=12))
    g = SignedGraph(n, tuple(edges))
    assume(edge_connectivity(g) >= 3 and is_k_unbalanced(g, 2))
    return g


@settings(max_examples=60, deadline=None)
@given(theorem_multigraphs(), st.sampled_from(LOOP_GROUPS), st.data())
def test_connect_on_multigraphs_with_loops(g, spec, data):
    A = parse_group(spec)
    elems = sorted(A.elements())
    fbar = [data.draw(st.sampled_from(elems)) for _ in range(g.m)]
    event(f"loops: {any(u == v for u, v, _ in g.edges)}")
    cert = flows.connect(g, A, fbar)
    event(f"strategy: {cert.strategy}")
    assert cert.flow is not None and flows.verify_avoidance(g, cert)


@pytest.mark.parametrize("spec", ["Z8", "Z9"])
def test_connect_cubicizes_past_a_half_edge_with_no_partner(spec):
    # cubicize used to pair the least half-edge at vertex 0, which has no
    # valid partner here, and raised AssertionError
    g = parse_sg("sg 2 4\ne 1 2 -\ne 2 1 +\ne 1 2 +\ne 1 1 -\n")
    A = parse_group(spec)
    cert = flows.connect(g, A, [A.zero] * g.m)
    assert cert.strategy == "composite" and flows.verify_avoidance(g, cert)


def test_connect_on_twelve_loops_at_one_vertex():
    # the nine positive loops used to be branched on inside the search,
    # which then spent its budget without an answer
    g = SignedGraph(1, tuple((0, 0, MINUS if e in (1, 2, 7) else PLUS)
                             for e in range(12)))
    A = parse_group("Z9")
    fbar = [(x,) for x in (2, 6, 7, 2, 1, 7, 7, 0, 1, 4, 6, 5)]
    cert = flows.connect(g, A, fbar)
    assert cert.strategy == "oracle" and flows.verify_avoidance(g, cert)


def test_connect_finds_the_flow_its_prime_route_refuses_at_n_20():
    # the prime route refuses this graph (a balanced side of a small cut),
    # and the search used to exit 3 at SEARCH_BUDGET; closing steps find
    # the flow in 63 279 free branchings
    g = cubic_2unbalanced(20, 3)
    A = parse_group("Z11")
    fbar = random_fbar(random.Random(1), A, 30)
    cert = flows.connect(g, A, fbar)
    assert cert.strategy == "oracle" and cert.flow is not None
    assert flows.verify_avoidance(g, cert)


@pytest.mark.parametrize("spec", ["Z5", "Z7"])
def test_connect_searches_past_the_old_edge_limit(spec):
    # 39 edges: the fallback used to exit 3 on "39 edges exceeds search
    # limit"
    g = cubic_2unbalanced(26, "past-the-edge-limit")
    A = parse_group(spec)
    cert = flows.connect(g, A, random_fbar(random.Random(26), A, g.m))
    assert cert.strategy == "oracle" and cert.flow is not None
    assert flows.verify_avoidance(g, cert)


def test_z2_to_3flow_takes_a_carrier_past_36_edges():
    g = cubic_2unbalanced(26, "past-the-edge-limit")
    tree = spanning_forest(g, range(g.m))
    sup = next(c for c in (set(fundamental_cycle(g, tree, e))
                           for e in range(g.m) if e not in tree)
               if cycle_sign(g, c) == PLUS)
    psi = flows.z2_to_3flow(g, sup, range(g.m))
    assert all(abs(psi[e]) == 1 for e in sup)
    assert all(abs(x) <= 2 for x in psi)
    assert integer_boundary(g, psi) == [0] * g.n


ROUTE_GROUPS = {"oracle": "Z5", "projective": "Z6", "composite": "Z6",
                "prime": "Z11"}


@pytest.mark.parametrize("route", ROUTE_GROUPS)
def test_connect_verifies_the_fallback_flow(monkeypatch, route):
    # a non-flow from the search or from a construction is a bug, not an
    # answer, and no construction checks its own finished flow: on cubic
    # Petersen, 1 on every edge leaves an odd sum of +-1 at every vertex
    monkeypatch.setattr(oracle, "satisfy_boundary",
                        lambda g, A, beta, **kwargs: [(1,)] * g.m)
    monkeypatch.setattr(flows, "connect_projective",
                        lambda g, A, fbar, emb: flows.AvoidanceCertificate(
                            "projective", A, [(1,)] * g.m, list(fbar)))
    monkeypatch.setattr(flows, "connect_composite",
                        lambda g, A, fbar, checked: flows.AvoidanceCertificate(
                            "composite", A, [(1,)] * g.m, list(fbar)))
    monkeypatch.setattr(flows, "connect_prime",
                        lambda g, p, fbar: flows.AvoidanceCertificate(
                            "prime", parse_group(f"Z{p}"), [(1,)] * g.m,
                            list(fbar)))
    A = parse_group(ROUTE_GROUPS[route])
    hint = k6_projective_embedding() if route == "projective" else None
    with pytest.raises(AssertionError,
                       match=f"{route} flow failed to verify"):
        flows.connect(petersen(), A, [A.zero] * 15, embedding=hint)


@pytest.mark.parametrize("route,calls", [
    ("composite", 1), ("projective", 1), ("prime", 2), ("oracle", 1)])
def test_connect_checks_each_flow_once(monkeypatch, route, calls):
    # connect's verify_avoidance is the one check of the finished flow; the
    # prime route's second call is the sun flow checking itself
    count = []

    def counted(g, f, A):
        count.append(1)
        return is_flow(g, f, A)

    monkeypatch.setattr(groups, "is_flow", counted)
    monkeypatch.setattr(flows, "is_flow", counted)
    g = petersen_2neg() if route == "prime" else petersen()
    A = parse_group(ROUTE_GROUPS[route])
    hint = k6_projective_embedding() if route == "projective" else None
    fbar = random_fbar(random.Random(route), A, g.m)
    cert = flows.connect(g, A, fbar, embedding=hint)
    assert cert.strategy == route and cert.flow is not None
    assert len(count) == calls


@pytest.mark.parametrize("graph,group,route,labellings", [
    (petersen, "Z6", "composite", 1), (petersen_2neg, "Z11", "prime", 2)])
def test_connect_labels_the_graph_once_at_entry(monkeypatch, graph, group,
                                                route, labellings):
    # both hypotheses come from one cut labelling (core.unmet_hypothesis).
    # The tree-2base decomposition trusts them and labels no more (it
    # labelled once more, for its own cubic-and-3-connected check); the
    # base-sun decomposition labels once more, and its cubic-and-3-connected
    # check and its balanced-cut check share that labelling (they labelled
    # once each).  Asking edge_connectivity and then is_k_unbalanced at
    # entry labelled it twice.
    labelled = spy_on_labelling(monkeypatch)
    g = graph()
    A = parse_group(group)
    cert = flows.connect(g, A, [A.zero] * g.m)
    assert cert.strategy == route and cert.flow is not None
    assert labelled == [g] * labellings


@pytest.mark.parametrize("graph,group,route", [
    (petersen, "Z6", "composite"), (petersen_2neg, "Z11", "prime")])
def test_connect_scans_the_2_closure_once(monkeypatch, graph, group, route):
    # the decomposition's check scans the 2-closure of X2 and leaves its
    # steps on the certificate, which the construction fixes over; the
    # construction used to scan the same closure again
    scanned = []
    k_closure = structures.k_closure

    def spy(g, seed, k):
        scanned.append((g, k))
        return k_closure(g, seed, k)

    for module in (core, decompose, flows, structures):
        if hasattr(module, "k_closure"):
            monkeypatch.setattr(module, "k_closure", spy)
    g = graph()
    A = parse_group(group)
    cert = flows.connect(g, A, random_fbar(random.Random(route), A, g.m))
    assert cert.strategy == route and cert.flow is not None
    assert scanned == [(g, 2)]


@pytest.mark.parametrize("n", [20, 24])
def test_connect_past_sixteen_vertices(n):
    # n > 16 used to be refused with DeskScaleError by the hypothesis checks
    g = cubic_2unbalanced(n, f"past-the-wall:{n}")
    for spec in ("Z6", "Z9"):
        A = parse_group(spec)
        cert = flows.connect(g, A, random_fbar(random.Random(n), A, g.m))
        assert cert.strategy == "composite"
        assert flows.verify_avoidance(g, cert)


@pytest.mark.parametrize("n", [20, 24])
def test_connect_prime_past_sixteen_vertices(n):
    # the prime route's balanced-cut check used to refuse n > 16 with
    # DeskScaleError
    rng = random.Random(f"prime-past-the-wall:{n}")
    while True:
        g = cubic_2unbalanced(n, rng.random())
        if (has_two_disjoint_cycles(g, want_negative=True) is not None
                and violating_balanced_cut(g) is None):
            break
    for spec in ("Z11", "Z13"):
        A = parse_group(spec)
        cert = flows.connect(g, A, random_fbar(random.Random(n), A, g.m))
        assert cert.strategy == "prime"
        assert flows.verify_avoidance(g, cert)


# -- properties of connect on the theorem's inputs ---------------------------

COMPOSITE_GROUPS = ("Z6", "Z8", "Z9", "Z10", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2")


@st.composite
def connect_instances(draw):
    """A cubic 3-connected 2-unbalanced graph with n <= 12, a group and a
    forbidden map.  The group is composite, or Z11 on a graph that meets
    the prime route's hypotheses: elsewhere Z11 falls back to search,
    which can take seconds.  Few random signatures meet them, so half the
    draws unbalance the graph's small balanced sides and take Z11 if that
    succeeds."""
    g = draw(signed_cubic_3connected().filter(lambda g: is_k_unbalanced(g, 2)))
    spec = draw(st.sampled_from(COMPOSITE_GROUPS))
    if draw(st.booleans()):
        h = unbalance_small_sides(g)
        if (violating_balanced_cut(h) is None and is_k_unbalanced(h, 2)
                and has_two_disjoint_cycles(h, want_negative=True)):
            g, spec = h, "Z11"
    A = parse_group(spec)
    return g, A, random_fbar(draw(st.randoms(use_true_random=False)), A, g.m)


@settings(max_examples=40, deadline=None)
@given(connect_instances())
def test_connect_certificate_round_trips_through_its_text(instance):
    g, A, fbar = instance
    cert = flows.connect(g, A, fbar)
    assert cert.strategy == ("prime" if A.order == 11 else "composite")
    back = flows.parse_avoidance(flows.format_avoidance(cert))
    assert back == cert
    assert flows.verify_avoidance(g, back)


@settings(max_examples=40, deadline=None)
@given(connect_instances(), st.randoms(use_true_random=False))
def test_connect_under_switching_and_relabelling(instance, rng):
    g, A, fbar = instance
    cert = flows.connect(g, A, fbar)
    side = {v for v in range(g.n) if rng.random() < 0.5}
    vmap = rng.sample(range(g.n), g.n)
    emap = rng.sample(range(g.m), g.m)
    edges, fb, flow = [None] * g.m, [None] * g.m, [None] * g.m
    for e, (u, v, sign) in enumerate(switch_on_set(g, side).edges):
        # switching at side negates the default orientation's reading of
        # an edge whose first end it switches, so f and fbar change sign
        carry = A.neg if u in side else (lambda x: x)
        edges[emap[e]] = (vmap[u], vmap[v], sign)
        fb[emap[e]] = carry(fbar[e])
        flow[emap[e]] = carry(cert.flow[e])
    h = SignedGraph(g.n, tuple(edges))
    assert flows.verify_avoidance(h, flows.AvoidanceCertificate(
        cert.strategy, A, flow, fb))  # the carried flow still avoids fb
    moved = flows.connect(h, A, fb)
    assert moved.strategy == cert.strategy
    assert flows.verify_avoidance(h, moved)
