"""Constructive flow avoidance: given a signed graph, an abelian group A and
a forbidden value per edge, build a flow that misses every forbidden value.

All flows here are sums of elementary pieces:

  * circulations: a constant x pushed around a positive cycle, with a +-1
    coefficient per edge determined by walking the cycle (conservation at a
    shared vertex v forces f_next = -c_v(in) c_v(out) f_prev, where c_v is
    an edge's coefficient at v, core.end_coeffs; a positive cycle closes
    consistently);
  * barbell flows: two negative cycles carrying +-x, meeting at one
    vertex or joined by a path carrying +-2x that cancels the +-2x leak
    each negative cycle produces at its junction vertex.

Both pieces come from circuit_coeffs, as the one circuit of the frame
matroid inside a connected base plus an edge: a positive cycle or a
barbell, read off a spanning tree of the base.  A barbell's coefficients
come from the oracle's integer search (oracle.integer_flow) over the
barbell's edges, and the paths that close a sun's return cycles from
core.simple_paths, which lists them shortest first, so the listing stops
at the first length that holds one of the needed sign.

Every flow is read in the default orientation, as groups.boundary reads
it: the sun flow signs its circulations along the sun instead of choosing
an orientation, and the projective route reads the oriented dual's values
through its per-edge direction.  duality loads only when that route runs.

The three constructions:

  * composite |A| >= 6: fix a spanning tree through quotient-group
    circulations over the 2-closure steps of its complement, read off the
    decomposition, then fix the complement with flows valued in a minimal
    subgroup N (fundamental cycles when |N| = 2, positive cycles /
    barbells inside a connected base when |N| is odd);
  * prime |A| = p >= 11: fix the pendant sun a base-sun decomposition
    stopped on with a sun flow, fix the rest of the base over its closure
    steps while staying 3-and-6 clear of the forbidden values, then clear
    the leftover collisions with 3 psi for an integer 3-flow psi;
  * projective: when the graph is the oriented dual of a projectively
    embedded primal, greedily color the primal in a 5-degenerate order and
    convert the tension to a flow.

Everything returns an AvoidanceCertificate that an independent checker can
replay: the flow, the forbidden map, and the construction artifacts.  The
constructions check their intermediate invariants but not their finished
flows; connect runs that checker, verify_avoidance, once on every flow it
returns.  The certificate, its text format and its checker are defined in
groups, which no construction imports, and are re-exported here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .core import (MINUS, PLUS, HypothesisError, SignedGraph, _adjacency,
                   _cut_labels, end_coeffs, shortest_path, simple_paths,
                   spanning_forest, unmet_hypothesis)
from .decompose import decompose_base_sun, decompose_tree_2base
from .groups import (AbelianGroup, AvoidanceCertificate, Elem, format_elem,
                     integer_boundary, is_flow, is_prime, minimal_subgroup,
                     verify_avoidance)
from .reduce import cubicize
from .structures import (CycleRef, NegativeSun, cycle_sign,
                         fundamental_cycles, order_cycle)
from . import groups, oracle

if TYPE_CHECKING:
    from .duality import EmbeddedGraph

# the certificate's text format, re-exported from groups
format_avoidance = groups.format_avoidance
parse_avoidance = groups.parse_avoidance


# -- elementary flow pieces ----------------------------------------------------

def circulation_coeffs(g: SignedGraph, cycle: CycleRef) -> dict[int, int]:
    """Coefficients kappa (+-1 per edge, kappa = +1 on the first edge) such
    that e -> kappa(e) * x is a flow for every x, supported on the cycle.

    Conservation at the vertex v shared by consecutive edges forces
    kappa_next = -c_v(prev) c_v(next) kappa_prev, where c_v is an edge's
    coefficient at v (core.end_coeffs), so walking once around the cycle
    comes back to kappa = +1 on the first edge exactly when the cycle is
    positive.
    """
    if cycle.sign != PLUS:
        raise ValueError("circulations exist only on positive cycles")
    k = len(cycle.edges)
    if k == 1:
        e = cycle.edges[0]
        if not g.is_loop(e):
            raise ValueError("single-edge cycle must be a loop")
        # a positive loop adds nothing to the boundary of its vertex
        return {e: 1}
    es = cycle.edges
    kappa = [1]
    for i in range(1, k + 1):
        v = cycle.vertices[i % k]  # joins es[i - 1] to es[i % k]
        kappa.append(-end_coeffs(g, es[i - 1])[v]
                     * end_coeffs(g, es[i % k])[v] * kappa[-1])
    if kappa[-1] != kappa[0]:
        raise AssertionError("positive cycle failed to close consistently")
    return dict(zip(cycle.edges, kappa))


def add_scaled(A: AbelianGroup, f: list[Elem], coeffs: dict[int, int],
               x: Elem) -> None:
    """f += coeffs * x in place (coeffs are small integers)."""
    for e, c in coeffs.items():
        f[e] = A.add(f[e], A.smul(c, x))


def circuit_coeffs(g: SignedGraph, base: Iterable[int],
                   edges: Iterable[int]) -> dict[int, dict[int, int]]:
    """For each edge e of `edges`, zero-boundary integer coefficients on
    the one circuit of the frame matroid inside base + e, where base is a
    connected base (a spanning tree plus an edge x closing a negative
    cycle) and e lies outside it.  The tree, rooted once for every
    fundamental cycle, and C_x are read off the base once for all the
    edges.

    With C_e and C_x the fundamental cycles of e and x over the tree, the
    circuit is C_e when C_e is positive, the positive cycle C_e + C_x of
    the theta when they share an edge, and otherwise the barbell of the
    two negative cycles joined at their shared vertex or by the tree path
    between them.  A circulation takes +1 on its cycle's first edge.  On
    a barbell, the search kernel fixes +1 on the edge by which c1, the
    lesser cycle by (length, edges), leaves the junction u1, and finds
    the only flow that is +-1 on the cycles and +-2 on the path.
    """
    base = sorted(base)
    tree = spanning_forest(g, base)
    left = set(base).difference(tree)
    if len(tree) != g.n - 1 or len(left) != 1:
        raise AssertionError("base + e is not a connected base plus an edge")
    (x,) = left
    cycle = fundamental_cycles(g, tree)
    cx = frozenset(cycle(x))
    if cycle_sign(g, cx) != MINUS:
        raise AssertionError("the base's cycle is positive")
    return {e: _one_circuit(g, base, tree, cycle, cx, e) for e in edges}


def _one_circuit(g: SignedGraph, base: list[int], tree: list[int],
                 cycle: Callable[[int], list[int]], cx: frozenset[int],
                 e: int) -> dict[int, int]:
    """circuit_coeffs for one edge e, given the base's tree, its
    fundamental cycles and C_x."""
    if e in base:
        raise AssertionError("base + e is not a connected base plus an edge")
    ce = frozenset(cycle(e))
    if cycle_sign(g, ce) == PLUS:
        return circulation_coeffs(g, order_cycle(g, ce))
    if ce & cx:
        return circulation_coeffs(g, order_cycle(g, ce ^ cx))
    c1, c2 = sorted((order_cycle(g, ce), order_cycle(g, cx)),
                    key=lambda c: (len(c), c.edges))
    on_cycles = ce | cx
    shared = set(c1.vertices) & set(c2.vertices)
    if shared:
        u1, path = min(shared), []
    else:
        u1, path, _ = shortest_path(g, [t for t in tree if t not in on_cycles],
                                    c1.vertices, c2.vertices)
    edges = sorted(on_cycles.union(path))
    domains = [[1, -1, 2, -2]] * g.m
    domains[c1.edges[c1.vertices.index(u1)]] = [1]
    f = oracle.integer_flow(g, edges, domains)
    if f is None:
        raise AssertionError("the search kernel found no barbell flow")
    return {t: f[t] for t in edges}


# -- integer 3-flows from even-degree supports -----------------------------------

def z2_to_3flow(g: SignedGraph, support: Iterable[int],
                carrier: Iterable[int]) -> list[int]:
    """Integer flow psi with psi(e) = +-1 exactly on support, |psi| <= 2 on
    the rest of the carrier, 0 elsewhere, and zero boundary.

    Preconditions: support is inside the carrier, every vertex meets an
    even number of support edges, and support holds an even number of
    negative edges.  Found by the oracle's integer search over the carrier
    edges.

    Raises ValueError when a precondition fails, and also when none does
    but no such psi exists: the parity conditions are necessary, not
    sufficient (two negative loops at different vertices, with nothing
    joining them, meet all three and carry no flow).
    """
    sup = set(support)
    car = set(carrier)
    if not sup <= car:
        raise ValueError("support must lie inside the carrier")
    deg: dict[int, int] = {}
    for e in sup:
        u, v = g.ends(e)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d % 2 for d in deg.values()):
        # loops already contribute twice to their vertex
        raise ValueError("support has a vertex of odd degree")
    if sum(1 for e in sup if g.sigma(e) == MINUS) % 2:
        raise ValueError("support holds an odd number of negative edges")
    domains = [[1, -1] if e in sup else [0, 1, -1, 2, -2] for e in range(g.m)]
    psi = oracle.integer_flow(g, sorted(car), domains)
    if psi is None:
        raise ValueError("no flow with values +-1 on the support and at most"
                         " 2 in size on the carrier")
    out = [0 if x is None else x for x in psi]
    if any(x != 0 for x in integer_boundary(g, out)):
        raise AssertionError("search returned a non-flow")
    if any(abs(out[e]) != 1 for e in sup):
        raise AssertionError("support edge without a +-1 value")
    return out


# -- sun flows ------------------------------------------------------------------

def forbidden_band(A: AbelianGroup, base: Elem) -> set[Elem]:
    """{base, base +- 3, base +- 6}: the band a sun flow must clear so that
    a later +-3 psi correction (psi in {0,+-1,+-2}) cannot land on base."""
    one = tuple(1 % n for n in A.factors)
    return {A.add(base, A.smul(d, one)) for d in (0, 3, -3, 6, -6)}


class SunFlowResult:
    def __init__(self, flow: list[Elem], e_prime: Optional[int], case: str):
        self.flow = flow  # a flow on g, supported on E(H) and the return paths
        self.e_prime = e_prime  # the one sun edge cleared only of fbar itself
        self.case = case  # "zero-odd", "zero-even" or "nonzero"


def sun_flow(g: SignedGraph, H: NegativeSun, p: int,
             fbar: Sequence[Elem]) -> SunFlowResult:
    """Flow over Z_p clearing the forbidden band on every sun edge except
    at most one special edge e', which is still cleared of fbar(e') itself.
    Requires p >= 11: every fixing step must dodge at most 10 values.

    Indices run from 0 and are read mod n: e_i joins the cycle vertices
    v_i and v_{i+1}, and the pendant e_i' joins v_i to its tip.  The
    construction pushes constants around return cycles D_i that meet the
    sun in {e_i', e_i, e_{i+1}'}, each closed by the shortest, then least,
    path between the two tips that avoids the sun's cycle.  D_i carries
    the circulation lambda_i, signed along the sun: lambda_0 adds +1 at v_1
    through e_0, and each later lambda_i agrees with lambda_{i-1} on the
    pendant e_i' they share.  Pushing y around D_i moves edge e by
    lambda_i(e) y, so the values of y that would land e in its band are
    lambda_i(e) (b - f(e)) for b in the band.

      * If fbar, restricted to the sun, has zero boundary at every cycle
        vertex, pushing lambda_i(e_i) fbar(e_i) + 1 around every D_i puts
        each cycle edge e_i at offset 1 from fbar and each pendant e_i' at
        offset 2, read in the sign of lambda_i and lambda_{i-1} (odd
        cycle).  An even cycle, where lambda_0 and lambda_{n-1} disagree on
        e_0', needs a +2 bump on D_{n-1}, which leaves offsets 3, 2, 1 on
        e_{n-1}', e_{n-1}, e_0'; e' = e_{n-1}'.
      * Otherwise the labels are rotated so that the boundary at v_1 is
        nonzero.  D_1 carries lambda_1(e_1') fbar(e_1') - lambda_0(e_0)
        fbar(e_0), which misses lambda_1(e_1) fbar(e_1) exactly because
        that boundary is nonzero.  Each D_i for i >= 2 fixes e_i and e_i'
        at once (<= 10 bad values).  D_0 then meets the same five bad
        values on e_0 and on e_1', and fixes e_0, e_0' and e_1' together;
        e' = e_1.
    """
    if not is_prime(p) or p < 11:
        raise ValueError(f"need a prime p >= 11, got {p}")
    A = AbelianGroup((p,))
    H.validate(g)
    n = H.n
    if len(set(H.pendant_vertices)) != n:
        raise ValueError("sun pendant tips must be distinct")
    if len(fbar) != g.m:
        raise ValueError("forbidden map must cover every edge")
    one = (1 % p,)

    def at(e: int, v: int) -> int:
        return end_coeffs(g, e)[v]

    # cycle vertices where fbar's boundary on the sun's edges is nonzero
    ce, pe = H.cycle_edges, H.pendant_edges
    nonzero = [k for k, v in enumerate(H.cycle_vertices)
               if A.sum(A.smul(at(e, v), fbar[e])
                        for e in (ce[k - 1], ce[k], pe[k])) != A.zero]
    r = (nonzero[0] - 1) % n if nonzero else 0
    vs, es, ps, ts = ([x[(i + r) % n] for i in range(n)] for x in (
        H.cycle_vertices, ce, pe, H.pendant_vertices))

    # the return cycles and their signed circulations
    on_c = set(vs)
    outside = [e for e, (u, v, _) in enumerate(g.edges)
               if u not in on_c and v not in on_c]
    lam: list[dict[int, int]] = []
    for i in range(n):
        j = (i + 1) % n
        need = g.sigma(ps[i]) * g.sigma(es[i]) * g.sigma(ps[j])
        # read each path from ts[j]: the least of the first length that
        # holds one of the needed sign, and no longer path is listed
        flip = ts[j] > ts[i]
        path = None
        for level in simple_paths(g, outside, (ts[j], ts[i])):
            fits = [q[::-1] if flip else q for q, _ in level
                    if cycle_sign(g, q) == need]
            if fits:
                path = min(fits)
                break
        if path is None:
            raise ValueError(f"no positive return cycle for sun position {i}:"
                             " the sun's complement is not 2-connected enough")
        kap = circulation_coeffs(
            g, order_cycle(g, {ps[i], es[i], ps[j]}.union(path)))
        s = kap[es[0]] * at(es[0], vs[1]) if i == 0 \
            else kap[ps[i]] * lam[-1][ps[i]]
        lam.append({e: s * c for e, c in kap.items()})

    f: list[Elem] = [A.zero] * g.m
    if not nonzero:
        case = "zero-odd" if n % 2 == 1 else "zero-even"
        for i in range(n):
            bump = 2 if (n % 2 == 0 and i == n - 1) else 1
            add_scaled(A, f, lam[i], A.add(A.smul(lam[i][es[i]], fbar[es[i]]),
                                           A.smul(bump, one)))
        off = {e: 1 for e in es} | {e: 2 for e in ps}
        if n % 2 == 0:
            off[es[n - 1]], off[ps[n - 1]], off[ps[0]] = 2, 3, 1
        for i in range(n):
            for e, sign in ((es[i], lam[i][es[i]]),
                            (ps[i], lam[i - 1][ps[i]])):
                if A.sub(f[e], fbar[e]) != A.smul(sign * off[e], one):
                    raise AssertionError(f"sun offset mismatch on edge {e}")
        e_prime = ps[n - 1] if n % 2 == 0 else None
    else:
        case = "nonzero"
        x = A.sub(A.smul(lam[1][ps[1]], fbar[ps[1]]),
                  A.smul(lam[0][es[0]], fbar[es[0]]))
        if x == A.smul(lam[1][es[1]], fbar[es[1]]):
            raise AssertionError("pairing value hit the forbidden value:"
                                 " boundary at v_1 should be nonzero")
        add_scaled(A, f, lam[1], x)
        elems = sorted(A.elements())
        steps = [(i, (es[i], ps[i])) for i in range(2, n)]
        steps.append((0, (es[0], ps[0], ps[1])))
        for i, fixes in steps:
            bad = {A.smul(lam[i][e], A.sub(b, f[e]))
                   for e in fixes for b in forbidden_band(A, fbar[e])}
            if len(bad) > 10:
                raise AssertionError("more than 10 forbidden values in a"
                                     f" sun fixing step at position {i}")
            add_scaled(A, f, lam[i], next(v for v in elems if v not in bad))
        e_prime = es[1]
        # every sun edge except e' clears the whole band
        for e in H.edge_set:
            if e != e_prime and f[e] in forbidden_band(A, fbar[e]):
                raise AssertionError(f"sun edge {e} left inside its band")
        if f[e_prime] == fbar[e_prime]:
            raise AssertionError("special edge landed on its forbidden value")

    if not is_flow(g, f, A):
        raise AssertionError("sun flow is not a flow")
    return SunFlowResult(f, e_prime, case)


# -- fixing over closure steps ---------------------------------------------------

def _fix_over_closure(g: SignedGraph, A: AbelianGroup, phi: list[Elem],
                      steps: Sequence[tuple[CycleRef, frozenset[int]]],
                      V: AbelianGroup, lift: Callable[[Elem], Elem],
                      ruled_out: Callable[[int], Iterable[Elem]],
                      bound: int) -> None:
    """Fix the edges a decomposition's closure steps absorb, last step
    first: push around each step's positive cycle the least value x of V
    whose lift into A keeps every edge the step absorbed off its forbidden
    values.  Updates phi in place.  The steps (PartitionCertificate.steps)
    close X2 to E - F, as the decomposition checked, so they fix X1 - F.

    ruled_out(e) lists the values of V that would land edge e on a
    forbidden value if added with coefficient +1 (reading phi as it stands);
    one step may rule out at most `bound` values.  A step's cycle touches
    no edge a later step absorbed, so every edge keeps the value its own
    step gave it.
    """
    values = sorted(V.elements())
    fixed: set[int] = set()
    for cyc, w in reversed(steps):
        if fixed.intersection(cyc.edges):
            raise AssertionError("closure step cycle touches an edge a later"
                                 " step fixed")
        kap = circulation_coeffs(g, cyc)
        bad = {V.smul(kap[e], x) for e in w for x in ruled_out(e)}
        if len(bad) > bound:
            raise AssertionError(f"closure step rules out {len(bad)} values,"
                                 f" more than {bound}")
        add_scaled(A, phi, kap, lift(next(v for v in values if v not in bad)))
        fixed |= w


# -- composite-order construction ---------------------------------------------

def connect_composite(g: SignedGraph, A: AbelianGroup,
                      fbar: Sequence[Elem], checked: bool = False
                      ) -> AvoidanceCertificate:
    """Avoidance flow for composite |A| >= 6 on a cubic 3-connected
    2-unbalanced graph.

    g must be 2-unbalanced: connect checks its input, and cubicize keeps
    it so.  The tree-2base decomposition refuses a g that is not cubic and
    3-connected with HypothesisError, unless checked says that g is cubic
    and passed connect's gate (decompose_tree_2base).

    Phase 1 fixes the spanning tree T modulo a minimal subgroup N: the
    2-closure of B = E - T absorbs T through positive cycles C_i adding at
    most two new edges W_i each; processing the steps backwards, a
    quotient-valued circulation on C_i (lifted to A through the least
    coset representatives, whole cycles at a time so the lift is still a
    flow) steers both W_i edges off the coset fbar + N, and later steps never
    touch them again.  Phase 2 fixes B with N-valued flows, which cannot
    disturb phase 1's coset guarantee on T: with |N| = 2 a constant on the
    fundamental cycle of each B-edge (its own orientation-free flow since
    2v = 0), with |N| odd a positive-cycle or barbell flow inside the
    connected base T' = T + b' per B-edge, where b, b' close negative
    fundamental cycles and a final flow through both fixes them together.

    The finished flow is not checked here: connect checks it, once.
    """
    if is_prime(A.order) or A.order < 6:
        raise ValueError(f"|A| = {A.order} is not composite >= 6")
    if len(fbar) != g.m:
        raise ValueError("forbidden map must cover every edge")
    ms = minimal_subgroup(A)
    Q = ms.quotient
    if Q.order < 3:
        raise AssertionError("quotient of order < 3 despite |A| >= 6")

    part = decompose_tree_2base(g, checked)
    T, B = part.x1, part.x2
    phi1: list[Elem] = [A.zero] * g.m
    _fix_over_closure(
        g, A, phi1, part.steps, Q, ms.represent,
        lambda e: [Q.sub(ms.project(fbar[e]), ms.project(phi1[e]))], 2)
    for e in T:
        if ms.same_coset(phi1[e], fbar[e]):
            raise AssertionError("tree edge left on the forbidden coset")

    phi2: list[Elem] = [A.zero] * g.m
    n_elems = list(ms.elements)
    cycle = fundamental_cycles(g, sorted(T))
    if A.order % 2 == 0:
        nu = next(v for v in n_elems if v != A.zero)
        for e in sorted(B):
            cyc_edges = cycle(e)
            bad = A.sub(fbar[e], phi1[e])
            val = next(v for v in (A.zero, nu) if v != bad)
            if val != A.zero:
                # 2*nu = 0, so a constant nu around any cycle is a flow
                # regardless of orientation or cycle sign
                for ce in cyc_edges:
                    phi2[ce] = A.add(phi2[ce], nu)
    else:
        negs = [e for e in sorted(B)
                if cycle_sign(g, cycle(e)) == MINUS]
        if len(negs) < 2:
            raise AssertionError("2-unbalanced graph with fewer than two"
                                 " negative fundamental cycles")
        b, bp = negs[0], negs[1]
        circuits = circuit_coeffs(g, T | {bp},
                                  [e for e in sorted(B) if e != bp])
        for e in sorted(B):
            if e in (b, bp):
                continue
            w = circuits[e]
            bad = A.sub(fbar[e], phi1[e])
            a_val = next(v for v in n_elems if A.smul(w[e], v) != bad)
            add_scaled(A, phi2, w, a_val)
        # T + b holds only C_b, which is negative, so the circuit of
        # T' + b runs through b'
        w = circuits[b]
        if bp not in w:
            raise AssertionError("the circuit of T' + b misses b'")
        a_val = next(
            v for v in n_elems
            if A.add(phi2[b], A.smul(w[b], v)) != A.sub(fbar[b], phi1[b])
            and A.add(phi2[bp], A.smul(w[bp], v)) != A.sub(fbar[bp], phi1[bp]))
        add_scaled(A, phi2, w, a_val)

    phi = [A.add(phi1[e], phi2[e]) for e in range(g.m)]
    artifacts = {
        "phi1": " ".join(format_elem(v) for v in phi1),
        "phi2": " ".join(format_elem(v) for v in phi2),
        "subgroup": " ".join(format_elem(v) for v in n_elems),
    }
    return AvoidanceCertificate("composite", A, phi, list(fbar),
                                artifacts=artifacts)


# -- prime-order construction ----------------------------------------------------

def connect_prime(g: SignedGraph, p: int,
                  fbar: Sequence[Elem]) -> AvoidanceCertificate:
    """Avoidance flow over Z_p, p prime >= 11, on a cubic 3-connected
    2-unbalanced graph with two vertex-disjoint negative cycles.

    g must be 2-unbalanced: connect checks its input, and cubicize keeps
    it so.  The base-sun decomposition refuses the other hypotheses (and a
    balanced side of a 3- or 4-edge-cut) with HypothesisError.

    A base-sun decomposition supplies a connected base T containing a
    pendant sun F and a complement B whose 2-closure recovers T - F.  The
    sun flow clears the band Y(e) = {fbar(e), fbar(e)+-3, fbar(e)+-6} on F (one
    special edge e' cleared only of fbar itself), quotient-free circulation
    fixes over the closure cycles clear it on the absorbed edges, and the
    collisions left on B (the set B1 where phi1 = fbar) are shifted by 3psi for
    an integer 3-flow psi that is +-1 exactly on a cycle-space support
    containing B1; since 3psi is in {0, +-3, +-6}, the band guarantees no
    new collision appears on T, and a sign flip of psi rescues e' if needed.

    The sun flow checks itself; the finished flow is not checked here:
    connect checks it, once.
    """
    if not is_prime(p) or p < 11:
        raise ValueError(f"need a prime p >= 11, got {p}")
    A = AbelianGroup((p,))
    if len(fbar) != g.m:
        raise ValueError("forbidden map must cover every edge")

    part = decompose_base_sun(g)
    T = set(part.x1)
    sf = sun_flow(g, part.sun, p, fbar)
    phi1 = list(sf.flow)
    e_prime = sf.e_prime

    _fix_over_closure(
        g, A, phi1, part.steps, A, lambda x: x,
        lambda e: [A.sub(y, phi1[e]) for y in forbidden_band(A, fbar[e])], 10)
    for e in T - {e_prime}:
        if phi1[e] in forbidden_band(A, fbar[e]):
            raise AssertionError(f"base edge {e} left inside its band")

    b1 = [e for e in sorted(part.x2) if phi1[e] == fbar[e]]
    psi = [0] * g.m
    if b1:
        # T + e holds one circuit of the frame matroid, a positive cycle or
        # a barbell; its odd coefficients mark the cycles, and the XOR of
        # those edge sets is an even-degree, even-negative support
        support: set[int] = set()
        for w in circuit_coeffs(g, T, b1).values():
            support ^= {x for x, c in w.items() if c % 2}
        if not set(b1) <= support:
            raise AssertionError("collision edges fell out of the support")
        carrier = T | set(b1)
        try:
            psi = z2_to_3flow(g, support, carrier)
        except ValueError as exc:
            # the support is built from cycles of the base, which joins them
            raise AssertionError(f"z2_to_3flow refused the base: {exc}") \
                from exc

    def shifted(sign: int) -> list[Elem]:
        one = (1 % p,)
        return [A.add(phi1[e], A.smul(sign * 3 * psi[e], one))
                for e in range(g.m)]

    phi = shifted(+1)
    collide = [e for e in range(g.m) if phi[e] == fbar[e]]
    if collide:
        if collide != [e_prime]:
            raise AssertionError(f"unexpected collisions at {collide}")
        phi = shifted(-1)
        if any(phi[e] == fbar[e] for e in range(g.m)):
            raise AssertionError("both psi signs collide: 12 = 0 mod p?")
    artifacts = {
        "sun-case": sf.case,
        "phi1": " ".join(format_elem(v) for v in phi1),
        "psi": " ".join(str(v) for v in psi),
        "b1": " ".join(str(e + 1) for e in b1) if b1 else "-",
    }
    return AvoidanceCertificate("prime", A, phi, list(fbar), e_prime,
                                artifacts)


# -- projective construction --------------------------------------------------------

def connect_projective(g: SignedGraph, A: AbelianGroup, fbar: Sequence[Elem],
                       embedding: EmbeddedGraph) -> AvoidanceCertificate:
    """Avoidance flow for |A| >= 6 on the oriented dual of an embedded
    primal (plane or projective plane), by greedy coloring.  match_dual
    finds the face orientations and relabelling that make the dual g, or
    raises ValueError (DeskScaleError when its search runs out of budget).

    Each primal edge uv, taken as a tension c(v) - c(u), maps to one dual
    flow value; forbidding one color per already-colored neighbour in a
    5-degenerate elimination order leaves a legal color whenever |A| >= 6.

    The finished flow is not checked here: connect checks it, once.
    """
    if A.order < 6:
        raise ValueError(f"greedy coloring needs |A| >= 6, got {A.order}")
    if len(fbar) != g.m:
        raise ValueError("forbidden map must cover every edge")
    from .duality import flow_from_coloring, match_dual
    dual, to = match_dual(embedding, g)
    primal = embedding.graph

    # forbidden values in the dual's own orientation, the one the coloring's
    # tensions are read in
    fbar_vals = [fbar[t] if d == 1 else A.neg(fbar[t])
                 for t, d in zip(to, dual.direction)]

    # 5-degenerate elimination order
    alive = set(range(primal.n))
    deg = {v: primal.degree(v) for v in alive}
    elim: list[int] = []
    adj = _adjacency(primal, range(primal.m))
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        if deg[v] > 5:
            raise ValueError("primal is not 5-degenerate: not an embedded"
                             " plane/projective-plane graph of the right kind")
        elim.append(v)
        alive.discard(v)
        for e, u in adj[v]:
            if u in alive:
                deg[u] -= 1
    elems = sorted(A.elements())
    c: list[Optional[Elem]] = [None] * primal.n
    for v in reversed(elim):
        forbid: set[Elem] = set()
        for e, u in adj[v]:
            if c[u] is None:
                continue
            x, y = primal.ends(e)
            # tension c(y) - c(x) must avoid the edge's forbidden value
            if y == v:
                forbid.add(A.add(c[u], fbar_vals[e]))
            else:
                forbid.add(A.sub(c[u], fbar_vals[e]))
        if len(forbid) >= A.order:
            raise AssertionError("greedy step exhausted the group")
        c[v] = next(x for x in elems if x not in forbid)
    coloring = [x for x in c]  # type: ignore[misc]
    f: list[Elem] = [A.zero] * g.m
    for t, x in zip(to, flow_from_coloring(embedding, dual, coloring, A)):
        f[t] = x
    artifacts = {"coloring": " ".join(format_elem(v) for v in coloring)}
    return AvoidanceCertificate("projective", A, f, list(fbar),
                                artifacts=artifacts)


# -- dispatcher --------------------------------------------------------------------

def connect(g: SignedGraph, A: AbelianGroup, fbar: Sequence[Elem],
            embedding: Optional[EmbeddedGraph] = None
            ) -> AvoidanceCertificate:
    """Find a flow avoiding fbar on a 3-edge-connected 2-unbalanced graph.

    fbar must give an element of A for every edge (ValueError otherwise).
    The two hypotheses are checked here, once, from one cut labelling
    (core.unmet_hypothesis), and every layer below trusts them: cubicize
    extends that labelling to its candidates, and the tree-2base
    decomposition of the cubic graph checks nothing again.  A graph
    outside them raises HypothesisError.  Strategy
    order: an embedding hint takes the projective route, which raises
    ValueError unless the hint's oriented dual, relabelled and switched,
    is g;
    composite |A| >= 6 and prime |A| >= 11 run their constructions on the
    cubicized graph and restrict the flow to g by a slice (cubicize keeps
    g's edges as edges 0..m-1 and adds only positive edges, whose
    contraction leaves the boundary zero); everything else, a graph with
    fewer than 2 vertices, and a HypothesisError from the prime route's
    decomposition (no two disjoint negative cycles, or a balanced side of
    a small cut) falls back to exhaustive search, which may also prove
    that no avoiding flow exists (flow = None).  No construction checks
    its finished flow: every returned flow, whatever its route, is checked
    once, here at exit, by verify_avoidance, and one that fails raises
    AssertionError.
    """
    if len(fbar) != g.m:
        raise ValueError("forbidden map must cover every edge")
    for e, x in enumerate(fbar):
        if not A.contains(x):
            raise ValueError(f"fbar of edge {e + 1} is {x}, not an element"
                             f" of {A}")
    labels = _cut_labels(g)
    unmet = unmet_hypothesis(g, labels)
    if unmet is not None:
        raise HypothesisError(unmet)

    composite = A.order >= 6 and not is_prime(A.order)
    cert = None
    if embedding is not None:
        cert = connect_projective(g, A, fbar, embedding)
    elif g.n >= 2 and (composite or A.order >= 11):  # or prime >= 11
        h = cubicize(g, labels[0]).graph
        fb = list(fbar) + [A.zero] * (h.m - g.m)
        try:
            cert = connect_composite(h, A, fb, checked=True) if composite \
                else connect_prime(h, A.order, fb)
        except HypothesisError:
            if composite:
                raise
            # the prime route's extra hypotheses fail: search instead
        else:
            cert.flow = cert.flow[:g.m]
            cert.fbar = list(fbar)
            if cert.e_prime is not None and cert.e_prime >= g.m:
                cert.e_prime = None
    if cert is None:
        sol = oracle.satisfy_boundary(g, A, [A.zero] * g.n, fbar=list(fbar),
                                      allow_zero=True)
        cert = AvoidanceCertificate("oracle", A, sol, list(fbar))
    # an unsat certificate gets no re-search
    if cert.flow is not None and not verify_avoidance(g, cert):
        raise AssertionError(f"{cert.strategy} flow failed to verify")
    return cert
