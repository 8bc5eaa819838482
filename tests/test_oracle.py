"""Exact backtracking oracles: boundary satisfaction, flows, connectivity."""

import itertools
import operator
import random
import sys

import pytest
from hypothesis import assume, event, example, given, settings, \
    strategies as st

from helpers import CUBIC_GRAPHS, REFERENCE_INTEGERS, brute_boundaries, \
    cubic_2unbalanced, doubled_k4_bridge, random_connected_graph, \
    random_elem, random_fbar, reference_boundaries, \
    reference_boundary_shape, reference_closed_parts, \
    reference_complete_boundary, reference_group_arithmetic, \
    reference_group_codes, reference_is_A_boundary, \
    reference_is_A_connected, reference_plan, \
    reference_sampled_is_A_connected, reference_search, reference_walk, \
    connected_multigraphs, signed_cubic_3connected, signed_multigraphs, \
    theorem_instances, two_components
from sgflow import oracle
from sgflow.core import (DeskScaleError, MINUS, PLUS, SignedGraph,
                         end_coeffs)
from sgflow.flows import z2_to_3flow
from sgflow.generators import (k4, k4_negative_triangle, negsun, petersen,
                               petersen_2neg, random_cubic_3connected)
from sgflow.groups import (AbelianGroup, boundary, integer_boundary, is_flow,
                           parse_group)
from sgflow.oracle import (_OverBudget, _check_boundary_inputs, _domain,
                           _draw_into, _group_codes, _plan, _search_group,
                           _walk, has_nz_A_flow, has_nz_k_flow, integer_flow,
                           is_A_connected, satisfy_boundary)
from sgflow.structures import all_cycles


def test_satisfy_boundary_returns_verified_solutions():
    rng = random.Random(17)
    tried = found = 0
    for _ in range(150):
        g = random_connected_graph(rng, n_lo=3, n_hi=6)
        A = parse_group(rng.choice(["Z4", "Z5", "Z6", "Z2xZ2"]))
        f0 = [random_elem(rng, A) for _ in range(g.m)]
        beta = boundary(g, f0, A)
        tried += 1
        f = satisfy_boundary(g, A, beta, allow_zero=True)
        # f0 itself satisfies beta, so a solution must exist
        assert f is not None
        assert boundary(g, f, A) == beta
        found += 1
    assert found == tried


def test_satisfy_boundary_respects_forbidden_map():
    g = k4_negative_triangle()
    A = parse_group("Z6")
    rng = random.Random(23)
    for _ in range(30):
        fbar = [random_elem(rng, A) for _ in range(g.m)]
        f = satisfy_boundary(g, A, [A.zero] * g.n, fbar=fbar)
        assert f is not None
        assert A.zero not in f
        assert all(f[e] != fbar[e] for e in range(g.m))
        assert is_flow(g, f, A)


def test_satisfy_boundary_rejects_non_boundaries():
    g = k4()
    A = parse_group("Z4")
    bad = [(1,), (0,), (0,), (0,)]  # sums to 1, not of the form 2a
    with pytest.raises(ValueError):
        satisfy_boundary(g, A, bad)


def test_satisfy_boundary_rejects_values_outside_the_group():
    g, A = k4(), parse_group("Z6")
    with pytest.raises(ValueError, match=r"\(7,\) is not an element of Z6"):
        satisfy_boundary(g, A, [(7,), (5,), (0,), (0,)])


def test_satisfy_boundary_rejects_forbidden_values_outside_the_group():
    g, A = k4(), parse_group("Z6")
    with pytest.raises(ValueError, match=r"\(9,\) is not an element of Z6"):
        satisfy_boundary(g, A, [A.zero] * g.n, fbar=[(9,)] + [(1,)] * 5)


def test_satisfy_boundary_rejects_maps_of_the_wrong_length():
    g, A = k4(), parse_group("Z6")
    with pytest.raises(ValueError, match="fbar has 5 entries for 6 edges"):
        satisfy_boundary(g, A, [A.zero] * g.n, fbar=[(1,)] * 5)
    with pytest.raises(ValueError, match="beta has 3 entries for 4 vertices"):
        satisfy_boundary(g, A, [A.zero] * 3)


def test_flow_existence_on_small_graphs():
    tri = SignedGraph(3, ((0, 1, PLUS), (1, 2, PLUS), (0, 2, PLUS)))
    assert has_nz_k_flow(tri, 2) is not None
    assert has_nz_A_flow(tri, parse_group("Z2")) is not None
    assert has_nz_k_flow(k4(), 3) is None
    assert has_nz_k_flow(k4(), 4) is not None


@pytest.mark.parametrize("k", [0, 1])
def test_k_flow_below_two_exists_only_without_edges(k):
    # no nonzero value lies strictly between -k and k, so the empty map on a
    # graph with no edges is the one such flow; it used to answer None there
    assert has_nz_k_flow(SignedGraph(2, ()), k) == []
    assert has_nz_k_flow(SignedGraph(1, ((0, 0, PLUS),)), k) is None
    parallel = SignedGraph(2, ((0, 1, PLUS), (0, 1, PLUS)))
    assert has_nz_k_flow(parallel, k) is None


def test_positive_petersen_needs_a_5_flow():
    g = petersen(all_positive=True)
    assert has_nz_k_flow(g, 4) is None
    f = has_nz_k_flow(g, 5)
    assert f is not None
    assert all(0 < abs(x) < 5 for x in f)


def test_pendant_edge_blocks_zero_boundary():
    g = negsun(3)
    A = parse_group("Z6")
    assert has_nz_A_flow(g, A) is None
    verdict = is_A_connected(g, A)
    assert verdict.status == "no"
    assert reference_is_A_boundary(g, A, verdict.witness_beta)


def test_exact_mode_settles_a_missed_zero_boundary_by_one_search():
    # a pendant edge leaves the zero boundary unreachable: the first
    # boundary in _all_boundaries order is the witness, found without a sweep
    verdict = is_A_connected(negsun(4), parse_group("Z9"))
    assert verdict.status == "no"
    assert verdict.witness_beta == [(0,)] * 8
    assert verdict.checked == 1


def test_zero_boundary_search_stops_at_its_budget():
    # two doubled K4s joined by a bridge: no nowhere-zero flow, and the
    # search only learns it after every branch on one side, so it goes past
    # its budget and the sweep gives the same verdict
    g, A = doubled_k4_bridge(), parse_group("Z6")
    plan = _plan(g, range(g.m), _group_codes(A))
    with pytest.raises(_OverBudget):
        _search_group(plan, A, [A.zero] * g.n, None, False,
                      budget=A.order ** g.n >> 10)
    verdict = is_A_connected(g, A)
    assert (verdict.status, verdict.witness_beta, verdict.checked) == \
        ("no", [A.zero] * g.n, 1)


def test_k4_negative_triangle_is_z6_connected():
    verdict = is_A_connected(k4_negative_triangle(), parse_group("Z6"))
    assert verdict.status == "yes"
    assert verdict.checked == 6 ** 3 * 3  # beta heads times doubled targets


def test_exact_mode_reaches_eight_vertices_over_z9():
    cube = theorem_instances(CUBIC_GRAPHS["cube"])[0]
    verdict = is_A_connected(cube, parse_group("Z9"))
    assert verdict.status == "yes"
    assert verdict.checked == 9 ** 8


def test_sampling_mode_agrees_with_exact_yes():
    g = k4_negative_triangle()
    A = parse_group("Z6")
    verdict = is_A_connected(g, A, samples=200, seed=4)
    assert verdict.status == "sampled-yes"
    assert verdict.checked == 200


def test_sampling_mode_plans_its_search_once(monkeypatch):
    plan, planned = oracle._plan, []

    def counted(*args):
        planned.append(args)
        return plan(*args)

    monkeypatch.setattr(oracle, "_plan", counted)
    verdict = is_A_connected(petersen(), parse_group("Z6"), samples=100, seed=1)
    assert (verdict.status, verdict.checked) == ("sampled-yes", 100)
    assert len(planned) == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_mode_needs_at_least_one_sample(samples):
    # it used to answer "sampled-yes" with checked 0 or -3
    with pytest.raises(ValueError, match="at least 1 sample"):
        is_A_connected(petersen(), parse_group("Z6"), samples=samples)


def test_sampling_mode_refuses_a_graph_with_no_vertices():
    # it used to say "beta has 1 entries for 0 vertices"
    with pytest.raises(ValueError, match="a graph with no vertices has no"
                                         " boundaries"):
        is_A_connected(SignedGraph(0, ()), parse_group("Z6"), samples=5)


def test_desk_scale_limits(monkeypatch):
    # (15 + 1) 7^10 bit-edges is past SWEEP_BUDGET: refused before any
    # search is planned
    def unplanned(*args):
        raise AssertionError("planned a search past the sweep budget")

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_plan", unplanned)
        with pytest.raises(DeskScaleError, match="sweep budget"):
            is_A_connected(petersen(), parse_group("Z7"))
    # the bridge's "no" takes 30 305 free branchings over Z5
    g, A = doubled_k4_bridge(), parse_group("Z5")
    assert has_nz_A_flow(g, A) is None
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 1000)
    with pytest.raises(DeskScaleError, match="search budget of 1000"):
        has_nz_A_flow(g, A)
    with pytest.raises(ValueError):
        is_A_connected(SignedGraph(0, ()), parse_group("Z6"))


def test_exact_mode_answers_petersen_over_z6():
    # the paper's flagship instance, past the old 8-vertex ceiling
    verdict = is_A_connected(petersen(), parse_group("Z6"))
    assert (verdict.status, verdict.checked) == ("yes", 6 ** 9 * 3)


@pytest.mark.parametrize("spec, doubled", [("Z10", 5), ("Z12", 6),
                                           ("Z16", 8)])
def test_exact_mode_answers_k4_negtri_past_order_nine(spec, doubled):
    # the old group-order ceiling of 9 refused these
    verdict = is_A_connected(k4_negative_triangle(), parse_group(spec))
    assert (verdict.status, verdict.checked) == \
        ("yes", int(spec[1:]) ** 3 * doubled)


def _brute_positive_k4_boundaries(q: int) -> set:
    """The boundaries of every nowhere-zero map over Z_q on all-positive K4
    (each edge adds its value at its first end and takes it at its second),
    in integers mod q alone."""
    edges = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
    reached = set()
    for f in itertools.product(range(1, q), repeat=len(edges)):
        b = [0] * 4
        for (u, v), x in zip(edges, f):
            b[u] += x
            b[v] -= x
        reached.add(tuple(x % q for x in b))
    return reached


@pytest.mark.parametrize("q", [5, 6, 7])
def test_exact_mode_answers_balanced_k4(q):
    # a balanced graph's boundaries have zero sum: nowhere-zero maps reach
    # all q^3 of them.  The sum-in-2A rule asked for more and answered "no"
    # at checked 2 (witness (0, 0, 0, 1) over Z5 and Z7, (0, 0, 0, 2) over
    # Z6).
    reached = _brute_positive_k4_boundaries(q)
    assert len(reached) == q ** 3
    assert all(sum(b) % q == 0 for b in reached)
    verdict = is_A_connected(k4(), parse_group(f"Z{q}"))
    assert (verdict.status, verdict.checked) == ("yes", q ** 3)


def test_balanced_k4_over_an_exponent_2_group_is_still_connected():
    verdict = is_A_connected(k4(), parse_group("Z2xZ2xZ2"))
    assert (verdict.status, verdict.checked) == ("yes", 8 ** 3)


def test_satisfy_boundary_rejects_a_balanced_graphs_nonzero_sum():
    # (0, 0, 0, 1) sums into 2A = Z5, but on a balanced graph a boundary
    # sums to zero; it used to get None, "no flow", instead of the error
    with pytest.raises(ValueError, match="balanced component of vertex 3"):
        satisfy_boundary(k4(), parse_group("Z5"), [(0,), (0,), (0,), (1,)])


# a negative digon on {0, 2}, balanced once 2 is switched, a negative loop
# at 1, and vertex 3 alone: a balanced, an unbalanced and a trivial component
THREE_PARTS = SignedGraph(4, ((0, 2, MINUS), (2, 0, MINUS), (1, 1, MINUS)))


@pytest.mark.parametrize("g, spec", [
    (k4(), "Z4"), (k4_negative_triangle(), "Z4"), (k4(), "Z2xZ2"),
    (THREE_PARTS, "Z4"), (THREE_PARTS, "Z6"), (two_components(), "Z3")])
def test_reference_boundaries_are_every_A_boundary_once(g, spec):
    A = parse_group(spec)
    listed = [tuple(b) for b in reference_boundaries(g, A)]
    assert listed[0] == (A.zero,) * g.n
    every = [b for b in itertools.product(sorted(A.elements()), repeat=g.n)
             if reference_is_A_boundary(g, A, b)]
    assert sorted(listed) == every  # so no boundary is listed twice


@pytest.mark.parametrize("g, spec", [
    (k4(), "Z4"), (k4_negative_triangle(), "Z4"), (k4(), "Z2xZ2"),
    (THREE_PARTS, "Z4"), (THREE_PARTS, "Z6"), (two_components(), "Z3")])
def test_exact_mode_enumerates_boundaries_in_the_reference_order(g, spec):
    A = parse_group(spec)
    codes = _group_codes(A)
    plan = _plan(g, range(g.m), codes)
    listed = [[codes.elem[x] for x in b]
              for b in oracle._all_boundaries(plan, codes, g.n)]
    assert listed == list(reference_boundaries(g, A))


def test_has_nz_k_flow_is_not_limited_by_edge_count():
    # 39 edges: has_nz_k_flow used to refuse past 18
    g = cubic_2unbalanced(26, "past-the-edge-limit")
    f = has_nz_k_flow(g, 4)
    assert f is not None and all(0 < abs(x) < 4 for x in f)
    assert integer_boundary(g, f) == [0] * g.n


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_nz_k_flow_at_larger_k_on_39_edges(seed, k):
    # with the cotree planned first these ran out of SEARCH_BUDGET after
    # 16-21 s, although every 4-flow is a 5-flow and a 6-flow
    g = cubic_2unbalanced(26, seed)
    f = has_nz_k_flow(g, k)
    assert f is not None and all(1 <= abs(x) <= k - 1 for x in f)
    assert integer_boundary(g, f) == [0] * g.n


@pytest.mark.parametrize("spec", ["Z5", "Z6", "Z8", "Z9", "Z2xZ2xZ2"])
def test_sampling_mode_draws_valid_pairs(monkeypatch, spec):
    # sampled mode does not check the pairs it draws: each must pass the
    # checks satisfy_boundary gives a caller's input, and the per-component
    # rule of the reference, on balanced and disconnected graphs too
    walk, drawn = oracle._walk, []
    A = parse_group(spec)
    codes = _group_codes(A)

    # an edge's domain is _avoiding's for the code of its fbar value
    fbar_of = {id(d): codes.elem[x] for x, d in
               oracle._avoiding(A)[False].items() if x is not None}

    def capture(plan, domains, beta, budget=None):
        drawn.append(([codes.elem[x] for x in beta],
                      [fbar_of[id(d)] for d in domains]))
        return walk(plan, domains, beta, budget)

    monkeypatch.setattr(oracle, "_walk", capture)
    loops = SignedGraph(1, ((0, 0, MINUS), (0, 0, MINUS)))
    for g in (petersen(), petersen_2neg(), k4_negative_triangle(), loops,
              k4(), two_components()):
        drawn.clear()
        verdict = is_A_connected(g, A, samples=40, seed=3)
        assert len(drawn) == verdict.checked > 0
        plan = _plan(g, range(g.m), codes)
        for beta, fbar in drawn:
            _check_boundary_inputs(g, A, beta, fbar, plan)
            assert reference_is_A_boundary(g, A, beta)


def test_sampling_mode_draws_without_element_arithmetic(monkeypatch):
    # inside its loop sampling mode computes on codes: no boundary search
    # through element tuples, and no sums or differences of elements
    def banned(*args, **kwargs):
        raise AssertionError("sampling mode computed with element tuples")

    monkeypatch.setattr(oracle, "_search_group", banned)
    monkeypatch.setattr(AbelianGroup, "sum", banned)
    monkeypatch.setattr(AbelianGroup, "sub", banned)
    statuses = {is_A_connected(g, parse_group(spec), samples=30,
                               seed=5).status
                for g in (petersen(), k4(), two_components(), negsun(3))
                for spec in ("Z6", "Z9", "Z2xZ2xZ2")}
    assert statuses == {"sampled-yes", "no"}  # a "no" decodes its witness


def test_sampling_mode_draws_without_random_choice(monkeypatch):
    # the draws read getrandbits directly (_draw_into), on choice's stream
    def banned(self, seq):
        raise AssertionError("sampling mode drew through Random.choice")

    monkeypatch.setattr(random.Random, "choice", banned)
    statuses = {is_A_connected(g, parse_group(spec), samples=30,
                               seed=5).status
                for g in (petersen(), k4(), two_components(), negsun(3))
                for spec in ("Z6", "Z9", "Z2xZ2xZ2")}
    assert statuses == {"sampled-yes", "no"}


def draws(rng, n, count):
    out = [None] * count
    _draw_into(rng.getrandbits, range(n), out, range(count))
    return out


# lengths 1-64, then powers of two, where a try of n.bit_length() bits reads
# n or more about half the time, and the lengths one above them
DRAW_LENGTHS = [*range(1, 65), *(2 ** j for j in range(7, 13)),
                *(2 ** j + 1 for j in range(7, 13))]


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 + 5])
def test_draws_pin_random_choices_stream(seed):
    # sampled verdicts repeat only while _draw_into draws what Random.choice
    # draws: a change to choice on some CPython fails here
    for n in DRAW_LENGTHS:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draws(ours, n, 300) == \
            [theirs.choice(range(n)) for _ in range(300)], n
        assert ours.getstate() == theirs.getstate(), n


def test_draws_pin_random_choices_stream_across_lengths():
    # a sample mixes lengths: 9 vertex values of 6, a sum of 3, 15 forbidden
    # values of 6 (Petersen over Z6); a length of 1 still spends a try
    ours, theirs = random.Random(3), random.Random(3)
    for count, n in [(9, 6), (1, 3), (15, 6), (4, 1), (2, 8), (0, 5),
                     (7, 64), (3, 65)] * 20:
        assert draws(ours, n, count) == \
            [theirs.choice(range(n)) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


# -- the search kernel against every map ------------------------------------------

GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2")


@st.composite
def small_instances(draw):
    """A graph with m <= 6 edges: loops of both signs and parallel edges
    occur, so in the default orientation a negative loop meets its vertex
    with coefficient 2."""
    n = draw(st.integers(1, 4))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                          max_size=6))
    return SignedGraph(n, tuple(edges))


def _elements(draw, A, count):
    elems = sorted(A.elements())
    return [draw(st.sampled_from(elems)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.sampled_from(GROUPS), st.booleans(),
       st.booleans(), st.data())
def test_satisfy_boundary_matches_every_map(g, spec, with_fbar,
                                            allow_zero, data):
    A = parse_group(spec)
    free, unbalanced = reference_boundary_shape(g)
    head = _elements(data.draw, A, free)
    beta = reference_complete_boundary(g, A, head, [
        A.add(a, a) for a in _elements(data.draw, A, unbalanced)])
    fbar = _elements(data.draw, A, g.m) if with_fbar else None
    domains = [[x for x in A.elements()
                if (allow_zero or x != A.zero)
                and (fbar is None or x != fbar[e])] for e in range(g.m)]
    exists = tuple(beta) in brute_boundaries(g, domains, A.zero, A.add,
                                             A.neg)
    event(f"exists: {exists}")
    f = satisfy_boundary(g, A, beta, fbar=fbar, allow_zero=allow_zero)
    assert (f is not None) == exists
    if f is not None:
        assert boundary(g, f, A) == beta
        assert all(f[e] in domains[e] for e in range(g.m))


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.integers(2, 4))
def test_has_nz_k_flow_matches_every_map(g, k):
    values = [x for x in range(1 - k, k) if x]
    exists = (0,) * g.n in brute_boundaries(g, [values] * g.m, 0,
                                            operator.add, operator.neg)
    event(f"exists: {exists}")
    f = has_nz_k_flow(g, k)
    assert (f is not None) == exists
    if f is not None:
        assert integer_boundary(g, f) == [0] * g.n
        assert all(x in values for x in f)


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.data())
def test_z2_to_3flow_matches_every_map(g, data):
    sup: set[int] = set()  # a cycle-space element: even degree everywhere
    for c in all_cycles(g):
        if data.draw(st.booleans()):
            sup ^= c.edge_set
    assume(sum(g.sigma(e) == MINUS for e in sup) % 2 == 0)
    car = sup | {e for e in range(g.m) if data.draw(st.booleans())}
    domains = [[1, -1] if e in sup else [0, 1, -1, 2, -2] if e in car
               else [0] for e in range(g.m)]
    exists = (0,) * g.n in brute_boundaries(g, domains, 0, operator.add,
                                            operator.neg)
    event(f"exists: {exists}")
    try:
        psi = z2_to_3flow(g, sup, car)
    except ValueError:
        psi = None
    assert (psi is not None) == exists
    if psi is not None:
        assert integer_boundary(g, psi) == [0] * g.n
        assert all(psi[e] in domains[e] for e in range(g.m))


# -- the planned kernel against the kernel that scans at every node -------------

@settings(max_examples=300, deadline=None)
@given(small_instances(), st.sampled_from(GROUPS), st.booleans(),
       st.booleans(), st.data())
def test_search_on_group_codes_matches_the_reference(g, spec, with_fbar,
                                                     allow_zero, data):
    A = parse_group(spec)
    edges = [e for e in range(g.m) if data.draw(st.booleans())]
    if data.draw(st.booleans()):  # reached by a map on the listed edges
        f0 = _elements(data.draw, A, g.m)
        beta = boundary(g, [f0[e] if e in edges else A.zero
                            for e in range(g.m)], A)
    else:  # anything, so untouched vertices may hold nonzero values
        beta = _elements(data.draw, A, g.n)
    fbar = _elements(data.draw, A, g.m) if with_fbar else None
    touched = {v for e in edges for v in g.ends(e)}
    event(f"untouched vertex with nonzero beta: "
          f"{any(beta[v] != A.zero for v in range(g.n) if v not in touched)}")
    _search_matches_the_reference(g, A, edges, beta, fbar, allow_zero,
                                  data.draw)


def _search_matches_the_reference(g, A, edges, beta, fbar, allow_zero, draw):
    """The kernel on codes against reference_search on elements, with the
    domains fbar and allow_zero give drawn in any order, so that forced
    values (in solve order) and free ones (in domain order) come in
    different orders."""
    domains = [draw(st.permutations(
        [x for x in A.elements() if (allow_zero or x != A.zero)
         and (fbar is None or x != fbar[e])])) for e in range(g.m)]
    event("closed under negation: "
          f"{all(A.neg(x) in d for d in domains for x in d)}")
    want = reference_search(g, edges, domains, beta,
                            reference_group_arithmetic(A))
    event(f"found: {want is not None}")
    codes = _group_codes(A)
    code, elem = codes.code, codes.elem
    got = _walk(_plan(g, edges, codes),
                [_domain(code[x] for x in d) for d in domains],
                [code[b] for b in beta])
    assert (None if got is None
            else [None if x is None else elem[x] for x in got]) == want


@settings(max_examples=500, deadline=None)
@given(small_instances(), st.sampled_from(("Z3", "Z4", "Z5", "Z6")),
       st.sampled_from(("none", "zero", "some")), st.booleans(), st.data())
def test_zero_boundary_search_matches_the_reference(g, spec, fbar_kind,
                                                    allow_zero, data):
    # beta = 0: with fbar None, or all zero and zero allowed, every domain is
    # closed under negation and the kernel tries only half of its first
    # edge's values; fbar nonzero on some edges breaks that (often on edges
    # after the first), and the kernel must then try them all.  Groups with
    # an element other than its own negative only: elsewhere no value drops
    A = parse_group(spec)
    edges = [e for e in range(g.m) if data.draw(st.booleans())]
    fbar = None if fbar_kind == "none" else [A.zero] * g.m
    if fbar_kind == "some":
        fbar = [x if data.draw(st.booleans()) else A.zero
                for x in _elements(data.draw, A, g.m)]
    _search_matches_the_reference(g, A, edges, [A.zero] * g.n, fbar,
                                  allow_zero, data.draw)


def test_zero_boundary_search_tries_both_signs_where_fbar_breaks_them():
    # the one flow is (2, 1): fbar rules out its negative (1, 2), so the
    # first edge must still try 2, which comes after -2 = 1
    g = SignedGraph(2, ((1, 0, MINUS), (0, 1, MINUS)))
    A = parse_group("Z3")
    assert satisfy_boundary(g, A, [A.zero] * 2, fbar=[(0,), (2,)],
                            allow_zero=True) == [(2,), (1,)]


def test_petersen_has_no_5_flow_within_its_measured_effort(monkeypatch):
    # the largest "no" of the benchmark: 6 723 free branchings with the
    # cotree planned first and every first value tried, 1 696 breadth first
    # and with the sign symmetry, on plain integers and on the codes of Z13
    # alike
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 1696)
    assert has_nz_k_flow(petersen(), 5) is None
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 1695)
    with pytest.raises(_OverBudget):
        has_nz_k_flow(petersen(), 5)


def test_search_forces_a_loop_in_its_planned_turn():
    # the negative loop at vertex 1 is forced only once both parallel edges
    # are assigned; its two halvings then come in element order, not in the
    # reversed domain order a free branch on it would take first
    g = SignedGraph(2, ((0, 1, PLUS), (0, 1, PLUS), (1, 1, MINUS)))
    A = parse_group("Z2xZ2")
    dom = sorted((x for x in A.elements() if x != A.zero), reverse=True)
    want = reference_search(g, range(3), [dom] * 3,
                            [A.zero] * 2, reference_group_arithmetic(A))
    assert want == [(1, 1), (1, 1), (0, 1)]
    codes = _group_codes(A)
    code, elem = codes.code, codes.elem
    got = _walk(_plan(g, range(3), codes),
                [_domain(code[x] for x in dom)] * 3, [0, 0])
    assert [elem[x] for x in got] == want


INTEGER_FAMILIES = ("k-flow", "carrier", "barbell")


def _integer_domains(g, k, family, draw):
    """A domain per edge, as has_nz_k_flow, z2_to_3flow and circuit_coeffs
    give them."""
    if family == "carrier":  # z2_to_3flow's: +-1 on a support, up to 2 off it
        return [draw(st.sampled_from(([1, -1], [0, 1, -1, 2, -2])))
                for _ in range(g.m)]
    if family == "barbell":  # circuit_coeffs': one edge pinned to 1, so not
        # every domain is closed under negation
        domains = [draw(st.permutations([1, -1, 2, -2])) for _ in range(g.m)]
        if g.m:
            domains[draw(st.integers(0, g.m - 1))] = [1]
        return domains
    # has_nz_k_flow's domain, in any order
    return [draw(st.permutations([x for x in range(1 - k, k) if x]))] * g.m


def _integer_flow_matches_the_reference(g, edges, domains):
    want = reference_search(g, edges, domains, [0] * g.n, REFERENCE_INTEGERS)
    event(f"found: {want is not None}")
    assert integer_flow(g, edges, domains) == want


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.integers(2, 4), st.sampled_from(INTEGER_FAMILIES),
       st.data())
def test_search_on_integers_matches_the_reference(g, k, family, data):
    edges = [e for e in range(g.m) if data.draw(st.booleans())]
    _integer_flow_matches_the_reference(
        g, edges, _integer_domains(g, k, family, data.draw))


@st.composite
def loaded_multigraphs(draw):
    """A vertex 0 of degree at least 6 (a loop counting twice), and at most
    eight edges in all: edges from vertex 0, negative loops at it and
    other edges among up to three more vertices, parallel ones included."""
    n = draw(st.integers(2, 4))
    other = st.integers(1, n - 1)
    hub = draw(st.lists(st.one_of(
        st.tuples(st.just(0), other, st.sampled_from((PLUS, MINUS))),
        st.just((0, 0, MINUS))), min_size=3, max_size=6))
    assume(sum(2 if u == v else 1 for u, v, _ in hub) >= 6)
    end = st.integers(0, n - 1)
    rest = draw(st.lists(st.tuples(end, end, st.sampled_from((PLUS, MINUS))),
                         max_size=8 - len(hub)))
    return SignedGraph(n, tuple(draw(st.permutations(hub + rest))))


@settings(max_examples=300, deadline=None)
@given(loaded_multigraphs(), st.integers(2, 3),
       st.sampled_from(INTEGER_FAMILIES), st.data())
def test_integer_flow_at_a_loaded_vertex_matches_the_reference(g, k, family,
                                                               data):
    # every edge listed, so vertex 0's load, at least 6 max |d|, sets the
    # modulus: a modulus no larger than it would let a vertex's values sum
    # to a nonzero multiple of it
    event(f"negative loop: {any(u == v and s == MINUS for u, v, s in g.edges)}")
    _integer_flow_matches_the_reference(
        g, range(g.m), _integer_domains(g, k, family, data.draw))


def test_integer_flow_walks_the_least_odd_modulus_above_every_load(
        monkeypatch):
    # the load of a vertex is the sum of |c| max |d| over its edges, and the
    # modulus also stays above 2 max |d|, so the residues of a domain differ;
    # integer searches never build satisfy_boundary's avoiding domains
    walked, codes = [], oracle._group_codes

    def spied(A):
        walked.append(A.factors)
        return codes(A)

    def unbuilt(A):
        raise AssertionError("an integer search built the avoiding domains")

    monkeypatch.setattr(oracle, "_group_codes", spied)
    monkeypatch.setattr(oracle, "_avoiding", unbuilt)
    has_nz_k_flow(petersen(), 5)  # 3 edges of at most 4 at each vertex
    has_nz_k_flow(petersen(), 4)  # loads 9
    one_edge = SignedGraph(2, ((0, 1, PLUS),))
    assert has_nz_k_flow(one_edge, 3) is None  # 2 max |d| = 4 above loads 2
    loops = SignedGraph(1, ((0, 0, MINUS),) * 2)  # each loop counts 2 max |d|
    f = has_nz_k_flow(loops, 3)
    assert f is not None and integer_boundary(loops, f) == [0]
    assert walked == [(13,), (11,), (5,), (9,)]


# -- the typed kernel against the kernel before its steps were typed -----------

# Groups of even order offer 0 or 2 halvings at a negative loop (a _SPLIT
# step); Z13 is the modulus of has_nz_k_flow's k = 5 on Petersen.
EFFORT_GROUPS = ("Z2", "Z4", "Z6", "Z8", "Z2xZ2", "Z3", "Z5", "Z9", "Z13")


def _reported_kinds(plan, domains, beta_codes):
    """Events for the step kinds, idle edges and the sign halving a walk
    meets."""
    kinds = {step.kind for step in plan.steps}
    for name in ("_FREE", "_FORCED", "_BOTH", "_SPLIT", "_CLOSE",
                 "_CLOSE_SPLIT"):
        event(f"{name} step: {getattr(oracle, name) in kinds}")
    event("closes two parts: " + str(any(
        step.kind == oracle._CLOSE and len(step.row) == 2
        for step in plan.steps)))
    event(f"positive loop: {bool(plan.idle)}")
    event("sign halving: " + str(
        bool(plan.steps) and not any(beta_codes)
        and plan.steps[0].kind == oracle._FREE
        and all(plan.neg[x] in domains[s.e] for s in plan.steps
                for x in domains[s.e])))


@st.composite
def joined_pieces(draw):
    """Two pieces on disjoint vertex sets, each a cycle through its two to
    four vertices plus at most one chord, joined by one or two edges, nine
    in ten of all edges positive; then switched at a random vertex set
    and numbered at random.  A step on a joining edge can leave two
    balanced parts."""
    sizes = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    sign = st.sampled_from((PLUS,) * 9 + (MINUS,))
    edges = []
    for lo, size in ((0, sizes[0]), (sizes[0], sizes[1])):
        edges += [(lo + i, lo + (i + 1) % size, draw(sign))
                  for i in range(size)]
        chord = st.lists(st.integers(lo, lo + size - 1), min_size=2,
                         max_size=2, unique=True)
        edges += [(u, v, draw(sign)) for u, v in draw(
            st.lists(chord, max_size=1))]
    left = st.integers(0, sizes[0] - 1)
    right = st.integers(sizes[0], sum(sizes) - 1)
    edges += draw(st.lists(st.tuples(left, right, sign), min_size=1,
                           max_size=2))
    n = sum(sizes)
    switched = draw(st.sets(st.integers(0, n - 1)))
    name = draw(st.permutations(range(n)))
    return SignedGraph(n, tuple(
        (name[u], name[v], -s if (u in switched) != (v in switched) else s)
        for u, v, s in draw(st.permutations(edges))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_instances(), loaded_multigraphs(),
                 joined_pieces()),
       st.sampled_from(EFFORT_GROUPS), st.sampled_from(("zero", "reached",
                                                        "any")),
       st.booleans(), st.data())
def test_typed_kernel_spends_the_reference_effort(g, spec, beta_kind,
                                                  closed, data):
    # same list as the kernel before its steps were typed, found within the
    # free branchings that kernel counted and not within one fewer
    A = parse_group(spec)
    ref = reference_group_codes(A)
    code = ref[0]
    elems = sorted(A.elements())
    edges = [e for e in range(g.m) if data.draw(st.booleans())]
    if closed:  # closed under negation: every element, or every nonzero one
        allow_zero = data.draw(st.booleans())
        every = [x for x in elems if allow_zero or x != A.zero]
        domains = [data.draw(st.permutations(every)) for _ in range(g.m)]
    else:
        domains = [data.draw(st.lists(st.sampled_from(elems), unique=True))
                   for _ in range(g.m)]
    if beta_kind == "zero":
        beta = [A.zero] * g.n
    elif beta_kind == "reached":
        f0 = _elements(data.draw, A, g.m)
        beta = boundary(g, [f0[e] if e in edges else A.zero
                            for e in range(g.m)], A)
    else:
        beta = _elements(data.draw, A, g.n)
    lists = [[code[x] for x in d] for d in domains]
    beta_codes = [code[b] for b in beta]
    want, count = reference_walk(reference_plan(g, edges, ref), lists,
                                 beta_codes)
    event(f"found: {want is not None}")
    plan = _plan(g, edges, _group_codes(A))
    _reported_kinds(plan, lists, beta_codes)
    typed = [_domain(d) for d in lists]
    assert _walk(plan, typed, beta_codes, budget=count) == want
    if count:
        with pytest.raises(_OverBudget):
            _walk(plan, typed, beta_codes, budget=count - 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_instances(), loaded_multigraphs()), st.integers(2, 4),
       st.sampled_from(INTEGER_FAMILIES), st.data())
def test_integer_flow_spends_the_reference_effort(g, k, family, data):
    edges = [e for e in range(g.m) if data.draw(st.booleans())]
    domains = _integer_domains(g, k, family, data.draw)
    walked, codes = [], oracle._group_codes

    def spied(A):
        walked.append(A)
        return codes(A)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_group_codes", spied)
        got = integer_flow(g, edges, domains)
        (A,) = walked
        n = A.order
        residues = [[x % n for x in d] for d in domains]
        want, count = reference_walk(
            reference_plan(g, edges, reference_group_codes(A)), residues,
            [0] * g.n)
        event(f"found: {want is not None}")
        patch.setattr(oracle, "SEARCH_BUDGET", count)
        assert integer_flow(g, edges, domains) == got
        if count:
            patch.setattr(oracle, "SEARCH_BUDGET", count - 1)
            with pytest.raises(_OverBudget):
                integer_flow(g, edges, domains)
    assert (got is None) == (want is None)
    if got is not None:
        assert [None if x is None else x % n for x in got] == want


CLOSING_GROUPS = ("Z5", "Z6", "Z2xZ2", "Z9")


def _plan_records_what_each_step_closes(g, edges, spec):
    """Each free step's closed parts and coefficients, against a breadth-
    first search of the open edges at its depth; the steps that saturate
    an end keep the kind their saturated ends give."""
    A = parse_group(spec)
    codes = _group_codes(A)
    plan = _plan(g, edges, codes)
    order = [step[0] for step in reference_plan(
        g, edges, reference_group_codes(A))[3]]
    assert [step.e for step in plan.steps] == order
    open_at = {v: 0 for v in range(g.n)}
    for e in order:
        for v in end_coeffs(g, e):
            open_at[v] += 1
    for d, step in enumerate(plan.steps):
        coeff = end_coeffs(g, step.e)
        for v in coeff:
            open_at[v] -= 1
        saturated = [v for v in coeff if not open_at[v]]
        if step.kind >= oracle._CLOSE:
            event(f"closes {len(step.row)} part(s)")
        if saturated:
            c = coeff[saturated[0]]
            assert step.kind == (oracle._BOTH if len(saturated) == 2
                                 else oracle._FORCED if c in codes.one
                                 else oracle._SPLIT)
            assert step.u == saturated[0]
            continue
        want = reference_closed_parts(g, step.e, order[d + 1:])
        if not want:
            assert (step.kind, step.row) == (oracle._FREE, None)
            continue
        assert step.kind == (oracle._CLOSE if want[0][1] in codes.one
                             else oracle._CLOSE_SPLIT)
        assert len(step.row) == len(want)
        for (plus, minus, a, sol), (s, b) in zip(step.row, want):
            got = {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)}
            assert len(got) == len(plus) + len(minus)
            flip = s[min(s)] * got.get(min(s), 0)  # s up to its sign
            assert ({v: flip * x for v, x in got.items()}, flip * a) == (s, b)
            assert sol is (codes.one[a] if step.kind == oracle._CLOSE
                           else codes.solve[a])


@settings(max_examples=300, deadline=None)
@given(signed_multigraphs(), st.sampled_from(CLOSING_GROUPS), st.data())
def test_plan_records_what_each_step_closes(g, spec, data):
    # loops of both signs, parallel edges, and a random subset of the edges
    _plan_records_what_each_step_closes(
        g, [e for e in range(g.m) if data.draw(st.booleans())], spec)


@settings(max_examples=300, deadline=None)
@given(joined_pieces(), st.sampled_from(CLOSING_GROUPS))
def test_plan_records_the_two_parts_a_joining_edge_closes(g, spec):
    _plan_records_what_each_step_closes(g, range(g.m), spec)


def test_a_step_that_splits_a_balanced_graph_checks_both_parts():
    # two positive digons joined by edge 0, which the plan takes first:
    # each digon is a closed part, and beta's sums ask x = 1 of one and
    # x = 0 of the other, so the one branching finds no value
    g = SignedGraph(4, ((0, 2, PLUS), (0, 1, PLUS), (0, 1, PLUS),
                        (2, 3, PLUS), (2, 3, PLUS)))
    A = parse_group("Z5")
    plan = _plan(g, range(g.m), _group_codes(A))
    assert plan.steps[0].kind == oracle._CLOSE
    assert [sorted(part[0] + part[1]) for part in plan.steps[0].row] == \
        [[0, 1], [2, 3]]
    beta = [(1,), (0,), (0,), (0,)]
    assert _search_group(plan, A, beta, None, True, budget=1) is None


def test_a_step_that_closes_a_balanced_part_answers_at_n_32(monkeypatch):
    # connect's search over Z11 on this graph branched 314 310 times (2.6 s)
    # when a balanced part learnt of a wrong sum only at its last vertex;
    # closing steps answer within 17 free branchings
    g = cubic_2unbalanced(32, 0)
    A = parse_group("Z11")
    fbar = random_fbar(random.Random(0), A, g.m)
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 2 ** 5)
    f = satisfy_boundary(g, A, [A.zero] * g.n, fbar=fbar, allow_zero=True)
    assert f is not None and is_flow(g, f, A)
    assert all(x != y for x, y in zip(f, fbar))


def test_a_random_boundary_over_z9_answers_within_its_measured_effort(
        monkeypatch):
    # drawn as sampled is_A_connected draws a pair: 532 933 free branchings
    # before the closing rule, 13 405 with it
    g = cubic_2unbalanced(20, 3)
    A = parse_group("Z9")
    rng = random.Random(3)
    beta = [random_elem(rng, A) for _ in range(g.n - 1)]
    target = rng.choice(sorted({A.add(a, a) for a in A.elements()}))
    beta.append(A.sub(target, A.sum(beta)))
    fbar = random_fbar(rng, A, g.m)
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 2 ** 14)
    f = satisfy_boundary(g, A, beta, fbar=fbar)
    assert f is not None and boundary(g, f, A) == beta
    assert all(x != y and x != A.zero for x, y in zip(f, fbar))


def test_a_search_over_1500_edges_answers():
    # the walk recurses once per edge: past the interpreter's default
    # recursion limit it used to raise RecursionError
    g = random_cubic_3connected(1000, random.Random(0))
    A = parse_group("Z7")
    assert g.m == 1500
    limit = sys.getrecursionlimit()
    f = satisfy_boundary(g, A, [A.zero] * g.n, fbar=[A.zero] * g.m)
    assert f is not None and is_flow(g, f, A)
    assert all(x != A.zero for x in f)
    assert sys.getrecursionlimit() == limit  # restored


# -- the boundary sweep against one search per boundary ---------------------------

SWEEP_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "Z2xZ4")


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.sampled_from(SWEEP_GROUPS))
def test_is_A_connected_matches_one_search_per_boundary(g, spec):
    # n <= 4, m <= 6: loops of both signs, parallel edges and isolated
    # vertices all occur
    A = parse_group(spec)
    want = reference_is_A_connected(g, A)
    event(f"verdict: {want[0]}")
    v = is_A_connected(g, A)
    assert (v.status, v.witness_beta, v.checked) == want


@settings(max_examples=150, deadline=None)
@given(loaded_multigraphs(), st.sampled_from(SWEEP_GROUPS))
def test_is_A_connected_at_a_busy_vertex_matches_one_search_per_boundary(
        g, spec):
    # vertex 0 is the busiest, so the sweep gives it the last digit and
    # must read each witness code in that numbering
    A = parse_group(spec)
    want = reference_is_A_connected(g, A)
    event(f"verdict: {want[0]}")
    event(f"renumbered: {oracle._digit_places(g) != list(range(g.n))}")
    v = is_A_connected(g, A)
    assert (v.status, v.witness_beta, v.checked) == want


def test_sweep_places_the_busiest_vertex_last():
    hub = SignedGraph(8, tuple((0, 1 + i % 7, MINUS if i % 3 else PLUS)
                               for i in range(36)))
    # degrees 36, 6, then 5 at the rest
    assert oracle._digit_places(hub) == [7, 6, 0, 1, 2, 3, 4, 5]
    # degree ties keep index order, so a regular graph keeps its numbering
    assert oracle._digit_places(petersen()) == list(range(10))
    assert oracle._digit_places(k4_negative_triangle()) == [0, 1, 2, 3]


# -- sampling mode against one satisfy_boundary call per sample -------------------

SAMPLED_GROUPS = ("Z6", "Z8", "Z9", "Z2xZ2xZ2", "Z3xZ3")


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_cubic_3connected(n_hi=10),
                 connected_multigraphs(n_hi=6, extra_hi=4)),
       st.sampled_from(SAMPLED_GROUPS), st.integers(1, 12),
       st.integers(0, 2 ** 16))
@example(k4(), "Z6", 12, 0)
@example(k4(), "Z9", 12, 1)
@example(two_components(), "Z6", 12, 2)
@example(two_components(), "Z3xZ3", 12, 3)
def test_sampling_mode_matches_one_search_per_sample(g, spec, samples, seed):
    # cubic 3-connected graphs, and connected multigraphs (n <= 6, loops of
    # both signs and parallel edges) that often answer "no"; at most four
    # edges beyond a tree keep each exhaustive "no" small.  All-positive K4
    # and a graph of two components, one balanced, draw per component.
    A = parse_group(spec)
    want = reference_sampled_is_A_connected(g, A, samples, seed)
    event(f"verdict: {want[0]}")
    v = is_A_connected(g, A, samples=samples, seed=seed)
    assert (v.status, v.checked, v.witness_beta, v.witness_fbar) == want


# -- positive loops ---------------------------------------------------------------

# One vertex with twelve loops, edges 1, 2 and 7 negative, and a forbidden map
# over Z9 that has an avoiding flow.
TWELVE_LOOPS = SignedGraph(1, tuple((0, 0, MINUS if e in (1, 2, 7) else PLUS)
                                    for e in range(12)))
TWELVE_LOOPS_FBAR = [(x,) for x in (2, 6, 7, 2, 1, 7, 7, 0, 1, 4, 6, 5)]


def test_plan_leaves_positive_loops_out():
    g = TWELVE_LOOPS
    plan = _plan(g, range(g.m), _group_codes(parse_group("Z9")))
    assert plan.idle == [0, 3, 4, 5, 6, 8, 9, 10, 11]
    assert [step.e for step in plan.steps] == [1, 2, 7]


def test_positive_loops_take_their_first_value_without_branching():
    # the loops used to be branched on inside the walk, so every "no" below
    # them was repeated per value: the search spent SEARCH_BUDGET without an
    # answer.  Now it branches on edge 1 once and on edge 2 once per value
    # of edge 1, and edge 7 is forced.
    g, A = TWELVE_LOOPS, parse_group("Z9")
    plan = _plan(g, range(g.m), _group_codes(A))
    f = _search_group(plan, A, [A.zero], TWELVE_LOOPS_FBAR, True, budget=10)
    assert f is not None and is_flow(g, f, A)
    assert all(f[e] != TWELVE_LOOPS_FBAR[e] for e in range(g.m))
    for e in plan.idle:  # the least element other than fbar(e)
        assert f[e] == ((1,) if TWELVE_LOOPS_FBAR[e] == A.zero else A.zero)


def test_a_positive_loop_with_an_empty_domain_has_no_value():
    g = SignedGraph(1, ((0, 0, PLUS),))
    A = parse_group("Z2")
    assert satisfy_boundary(g, A, [A.zero], fbar=[(1,)]) is None
    assert satisfy_boundary(g, A, [A.zero], fbar=[(0,)]) == [(1,)]
