"""Ground-truth search for flows and boundary satisfaction.

Everything here is exact backtracking, and all of it runs through one
kernel.  Boundaries are read in the default orientation, where an edge has
coefficient +1 at its first end and -sigma(e) at its second (2 at the
vertex of a negative loop, nothing for a positive loop), `core.end_coeffs`.
The kernel orders the edges breadth first: by the place of their later
end in a breadth-first order of the vertices, so each vertex's edges come
together and endpoints fill up early.  It assigns one edge at a time: the
first open edge that is the last open one at some vertex, whose residual
boundary forces its value, or else the first open edge.  Which edge comes
next depends only on which edges are assigned, never on their values, so
the kernel plans the whole order once per (graph, edges), `_plan`: one
typed step per depth.  A free step saturates no endpoint and branches on
its domain.  A forced step saturates one, whose residual forces the value:
one lookup gives it, or no value.  A step forced at both ends takes the
first end's value and keeps it only if it zeroes the second end's
residual too.  A negative loop in a group of even order may have two
halvings or none, which a split step tries in turn.  A positive loop
changes no boundary, so it is left out of the plan and takes its first
value once a walk succeeds.

A forced step is one case of a wider rule.  On a balanced component K of
the open edges, no assignment changes the signed sum S of the residual
boundary over K, so a solution needs S = 0.  A free step that leaves such
a K open, where K was not balanced with the step's edge, closes K: the
edge's value x must solve a x = S, with a = +-1 or +-2 (a forced step
closes K = {u}).  A closing step still counts against the budget as a
free branching, but tries only its domain's values, in domain order,
that solve the equation of every part it closes; each value it drops
leads to no solution, so every search returns what it would without the
rule.  `_plan` finds the parts in one reverse pass over its steps.

Each search is a depth-first walk of a plan, `_walk`, and sampled
`is_A_connected` walks one plan for all its samples, drawing each pair
directly as codes: seed S draws the pairs `random.Random(S).choice` would
draw over the codes in element order (`_draw_into`), so its verdicts
repeat across Python 3.10 to 3.13.  A branch dies as soon as no value
fits.  A search for a zero boundary over domains closed under negation
finds its solutions in pairs f, -f, so it tries only half the values of
its first edge, which roughly halves its "no" proofs and changes no
answer.

The kernel takes a domain per edge, its values in order and the set of
them, and has one arithmetic: its values are integer codes of group
elements.  Digit i of a code has radix
2 n_i for the cyclic factor Z_{n_i}, so the sum of two codes never carries
and one lookup row of 2^r |A| entries (r factors) reduces it.  Negation,
multiples and the solutions of c x = r are rows too, built once per group
(`_group_codes`).
`satisfy_boundary` and `has_nz_A_flow` search the codes of A.
`integer_flow`, for `has_nz_k_flow` and the constructions in `flows`,
searches bounded integers as the codes of Z_N, for an odd N large enough
that the flows mod N are the integer flows.

An A-boundary is read per component K of the graph: its sum over K lies
in 2A if K is unbalanced, and its sum over K switched to all-positive,
sum s(v) beta(v), is 0 if K is balanced (Li-Luo-Ma-Zhang, SIAM J.
Discrete Math. 2018).  The plan's reverse pass ends with every edge open,
so it lists these components and their switchings (`_Plan.components`).

Exact A-connectivity does not search boundary by boundary.  By the
Jaeger-Linial-Payan-Tarsi reduction (JCTB 1992), a graph is A-connected
iff nowhere-zero maps reach every A-boundary, so `is_A_connected` builds
the set of boundaries they reach in one sweep, `_reachable_boundaries`: a
bitset over A^n that grows edge by edge, each edge taking the union of the
set shifted by every nonzero value it can carry, with the busiest vertices
in its least significant digits.  The zero boundary comes first in the
order that names the witness, so one search for a nowhere-zero flow, on a
budget that keeps it within the sweep's cost, settles a "no" there before
any sweep.

No input is refused for its size, only for its work, by DeskScaleError:
a search past SEARCH_BUDGET free branchings (on edges that no endpoint
forces, closing steps included), which bounds every caller of the
kernel, and an exact sweep whose
(edges + 1) |A|^n passes SWEEP_BUDGET.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import sys
from typing import NamedTuple, Optional, Sequence

from .core import (DeskScaleError, SignedGraph, _tree_order, end_coeffs,
                   spanning_forest)
from .groups import AbelianGroup, Elem

# Limits on work: free branchings per search (2-5 us each), and
# (edges + 1) |A|^n for the exact sweep, its bitset size times edges.
SEARCH_BUDGET = 2 ** 20
SWEEP_BUDGET = 2 ** 31


class _GroupCodes(NamedTuple):
    """Integer codes of a group's elements and the kernel's arithmetic on
    them.  Digit i of a code is the element's residue mod n_i, with radix
    2 n_i and digit 0 most significant, so codes follow the lexicographic
    order of the elements, and an element of Z_n has its residue as code.

    When an edge with coefficient c takes x, a residual r takes
    reduce[r + terms[c][x]], where terms[c] maps the code of x to the code
    of -c x; c is one of -2, -1, 0, 1, 2.  For nonzero c, c x = r has at
    most one solution for every r, or two or more for some: one[c][r] is
    the one x, or -1 for none, in the first case, and solve[c][r] every x,
    in element order, in the second.  c = +-1 is always in one, and +-2
    is when |A| is odd.  doubled lists the codes of 2A in element order."""

    code: dict[Elem, int]
    elem: dict[int, Elem]
    terms: dict[int, Sequence[int]]
    reduce: Sequence[int]
    one: dict[int, Sequence[int]]
    solve: dict[int, Sequence[tuple[int, ...]]]
    doubled: tuple[int, ...]


@functools.lru_cache(maxsize=16)
def _group_codes(A: AbelianGroup) -> _GroupCodes:
    """Rows of 2^r |A| entries for r cyclic factors: one reduces the sum
    of two codes digit by digit, and per coefficient c one holds the
    multiples -c x and one the solutions of c x = r.  No table is indexed
    by a pair of elements."""
    reduce = [0]
    weights: list[int] = []
    size = 1
    for n in reversed(A.factors):
        reduce = [r + (d % n) * size for d in range(2 * n) for r in reduce]
        weights.insert(0, size)
        size *= 2 * n
    elems = list(A.elements())
    code = {a: sum(x * w for x, w in zip(a, weights)) for a in elems}
    terms, one, solve = {0: (0,) * size}, {}, {}
    for c in (-2, -1, 1, 2):
        row = [0] * size
        sols: list[tuple[int, ...]] = [()] * size
        for a in elems:  # in order, so solutions come in element order
            row[code[a]] = code[A.smul(-c, a)]
            r = code[A.smul(c, a)]
            sols[r] = sols[r] + (code[a],)
        terms[c] = tuple(row)
        if all(len(s) < 2 for s in sols):
            one[c] = tuple(s[0] if s else -1 for s in sols)
        else:
            solve[c] = tuple(sols)
    return _GroupCodes(code, {x: a for a, x in code.items()}, terms,
                       tuple(reduce), one, solve,
                       tuple(sorted({terms[-2][x] for x in code.values()})))


def _domain(values: Sequence[int]) -> tuple[tuple[int, ...], frozenset]:
    """A domain as the kernel takes it: its values in order, and the set
    of them."""
    values = tuple(values)
    return values, frozenset(values)


@functools.lru_cache(maxsize=16)
def _avoiding(A: AbelianGroup) -> tuple[dict, dict]:
    """satisfy_boundary's domains, apart from _group_codes as they hold
    |A|^2 codes: [allow_zero][x] holds, in element order, every code but x,
    and but zero unless allow_zero; [allow_zero][None] every such code.
    Each is a `_domain`."""
    codes = tuple(_group_codes(A).code.values())  # zero first
    return tuple({None: _domain(every),
                  **{x: _domain(y for y in every if y != x) for x in codes}}
                 for every in (codes[1:], codes))


class _OverBudget(DeskScaleError):
    """The search branched on more free edges than its budget allows."""


# The kinds of a planned step, by the endpoints the step saturates (where
# its edge is the last open one): one, whose residual has at most one
# solution x (`_GroupCodes.one`); two, where the first one's solution must
# also zero the second's residual; one with a residual of two or more
# solutions (`_GroupCodes.solve`: a negative loop, coefficient 2, in a group
# of even order); none, so the edge branches on its domain.  A step of the
# last kind that closes a balanced part of the open edges branches only on
# the values that part allows: at most one (`_GroupCodes.one`), or every
# solution of 2 x = S (`_GroupCodes.solve`, in a group of even order).
_FORCED, _BOTH, _SPLIT, _FREE, _CLOSE, _CLOSE_SPLIT = range(6)
# the kinds that read a domain's set; the others read its values in order
_BY_SET = frozenset((_FORCED, _BOTH, _SPLIT, _CLOSE))


class _Step(NamedTuple):
    """One depth of a plan.  The edge e changes the residuals of u and w
    through the terms rows cu and cw; w is the spare slot n, which stays 0,
    when e has one end.  A forced step's saturated end is u, and row is
    the `one` row (the `solve` row for _SPLIT) of its coefficient there;
    row is None for a free step.  A closing step's row holds its
    equations, one per balanced part K it closes: (plus, minus, a, sol),
    where plus and minus list K's vertices by the sign of a switching s of
    K, a is the sum of s(v) c_v(e) over e's ends v in K, and sol is the
    `one` row of a (the `solve` row for _CLOSE_SPLIT)."""

    kind: int
    e: int
    u: int
    cu: Sequence[int]
    w: int
    cw: Sequence[int]
    row: Optional[Sequence]


class _Plan(NamedTuple):
    """What the kernel works out before it looks at any value searched
    for: a pure function of (graph, listed edges, group codes).

    bare lists the vertices where no listed edge has a nonzero
    coefficient, and idle the listed edges with no nonzero coefficient
    (positive loops), which no boundary constrains.  steps holds one
    `_Step` per depth.  reduce is the codes' reduce row, neg their
    terms[1] row, which maps a code to its negative, and size the order
    of the group.

    components lists the components of the listed edges, in the order of
    their last vertices, each as (plus, minus, unbalanced, last): a
    boundary's sum over plus less its sum over minus (`_signed_sum`) is 0
    on a balanced component, whose switching gives plus the sign +1 and
    puts its last vertex there, and lies in 2A on an unbalanced one, whose
    vertices are all in plus.
    """

    m: int
    bare: list[int]
    idle: list[int]
    steps: list[_Step]
    reduce: Sequence[int]
    neg: Sequence[int]
    size: int
    components: list[tuple[list[int], list[int], bool, int]]


def _plan(g: SignedGraph, edges: Sequence[int], codes: _GroupCodes) -> _Plan:
    """The plan of a search over the listed edges (see `_walk`): the edges
    breadth first, each next one forced where some endpoint allows, each
    step typed by the endpoints it saturates.  The edges that some
    endpoint forces wait in a heap by their place in that order, and a
    vertex keeps the XOR of the places of its open edges, which names the
    last one.  A reverse pass then grows the open edges from the last step
    back, merging the smaller component into the larger, each vertex
    keeping its component and its sign in a switching of it; a component
    that meets an unbalanced cycle is marked.  The pass ends with every
    edge open, so its components are those of all the listed edges.  So
    planning takes O(m log m) for m edges, plus the vertex lists of the
    closed parts."""
    terms, one, solve = codes.terms, codes.one, codes.solve
    n = g.n
    bfs, _ = _tree_order(g, spanning_forest(g, edges), range(n))
    place = [0] * n
    for i, v in enumerate(bfs):
        place[v] = i
    idle, keyed = [], []
    for e in edges:
        coeff = end_coeffs(g, e)
        if not coeff:
            idle.append(e)  # a positive loop
            continue
        (u, cu), (w, cw) = (*coeff.items(), (n, 0))[:2]
        x, y = place[g.edges[e][0]], place[g.edges[e][1]]
        # the place of the later end, then of the earlier end, then e
        keyed.append((x, y, e, u, cu, w, cw) if x > y
                     else (y, x, e, u, cu, w, cw))
    keyed.sort()
    # open incident edges per vertex (a loop counts once), and the XOR of
    # their places; the spare slot n, a loop's second end, never runs low
    remaining = [0] * n + [len(keyed) + 2]
    left = [0] * (n + 1)
    for i, (_x, _y, _e, u, _cu, w, _cw) in enumerate(keyed):
        remaining[u] += 1
        remaining[w] += 1
        left[u] ^= i
        left[w] ^= i
    bare = [v for v in range(n) if not remaining[v]]
    # places of edges that are the last open one at some endpoint; an entry
    # goes stale once its edge is planned
    ready = [left[v] for v in range(n) if remaining[v] == 1]
    heapq.heapify(ready)
    planned = [False] * len(keyed)
    first = 0  # no edge before this place is unplanned

    forward = []  # (kind, e, u, cu, w, cw) per depth
    for _ in keyed:
        # the first edge with an endpoint where it is the last open one,
        # else the first edge
        while ready and planned[ready[0]]:
            heapq.heappop(ready)
        while planned[first]:
            first += 1
        i = heapq.heappop(ready) if ready else first
        planned[i] = True
        _x, _y, e, u, cu, w, cw = keyed[i]
        left[u] ^= i
        left[w] ^= i
        remaining[u] -= 1
        remaining[w] -= 1
        if remaining[u] == 1:
            heapq.heappush(ready, left[u])
        if remaining[w] == 1:
            heapq.heappush(ready, left[w])
        if remaining[u]:
            if remaining[w]:
                kind = _FREE
            else:  # the saturated end first
                kind, u, cu, w, cw = _FORCED, w, cw, u, cu
        elif cu not in one:
            kind = _SPLIT
        else:
            kind = _FORCED if remaining[w] else _BOTH
        forward.append((kind, e, u, cu, w, cw))

    comp = list(range(n))  # a vertex's component of the open edges
    sign = [1] * n  # and its sign in a switching of that component
    plus: list[list[int]] = [[v] for v in range(n)]  # a component's vertices
    minus: list[list[int]] = [[] for _ in range(n)]  # by sign
    count = [1] * n  # and their number
    unbalanced = [False] * n
    steps: list = [None] * len(forward)
    for d in range(len(forward) - 1, -1, -1):
        kind, e, u, cu, w, cw = forward[d]
        ku = comp[u]
        if w == n:  # a negative loop
            parts = [(ku, sign[u] * cu)]
        else:
            kw = comp[w]
            au, aw = sign[u] * cu, sign[w] * cw
            parts = [(ku, au + aw)] if ku == kw else [(ku, au), (kw, aw)]
        if kind != _FREE:
            row = one[cu] if kind != _SPLIT else solve[cu]
        else:  # a part e closes is balanced without e, and a != 0
            row = [(tuple(plus[k]), tuple(minus[k]), a) for k, a in parts
                   if a and not unbalanced[k]]
            if not row:
                row = None
            elif row[0][2] in one:
                kind, row = _CLOSE, tuple(q + (one[q[2]],) for q in row)
            else:  # one part: e is a negative loop or closes a cycle
                kind, row = _CLOSE_SPLIT, (row[0] + (solve[row[0][2]],),)
        steps[d] = _Step(kind, e, u, terms[cu], w, terms[cw], row)
        # add e to the open edges
        if len(parts) == 1:
            if parts[0][1]:
                unbalanced[ku] = True
            continue
        if count[ku] < count[kw]:
            ku, kw = kw, ku
        pk, mk = plus[kw], minus[kw]
        for x in pk:
            comp[x] = ku
        for x in mk:
            comp[x] = ku
        if au * aw > 0:  # kw's switching flips to agree with ku's on e
            for x in pk:
                sign[x] = -1
            for x in mk:
                sign[x] = 1
            pk, mk = mk, pk
        plus[ku] += pk
        minus[ku] += mk
        count[ku] += count[kw]
        unbalanced[ku] = unbalanced[ku] or unbalanced[kw]
    components = []
    for t in range(n - 1, -1, -1):
        k = comp[t]
        if count[k]:  # t is the last vertex of k, which is read once
            count[k] = 0
            components.append(
                (plus[k] + minus[k], [], True, t) if unbalanced[k]
                else (plus[k], minus[k], False, t) if sign[t] > 0
                else (minus[k], plus[k], False, t))
    components.reverse()
    return _Plan(g.m, bare, idle, steps, codes.reduce, terms[1],
                 len(codes.code), components)


def _signed_sum(residual: Sequence[int], reduce: Sequence[int],
                neg: Sequence[int], part: tuple) -> int:
    """S for a part a closing step closes: the code of the sum of the
    residuals at its vertices of sign +1, less those at its vertices of
    sign -1."""
    s = 0
    for v in part[0]:
        s = reduce[s + residual[v]]
    for v in part[1]:
        s = reduce[s + neg[residual[v]]]
    return s


def _walk(plan: _Plan, domains: Sequence, beta: Sequence[int],
          budget: Optional[int] = None) -> Optional[list]:
    """Values f(e) in domains[e], for the edges of the plan (listed in
    increasing order), whose boundary is beta, edges not listed carrying
    nothing; None if there are none.  Each domain is a `_domain`: the
    values in order and the set of them.  The returned list is indexed by
    edge and holds None for edges not listed.

    The vertices are placed in the breadth-first order of a spanning
    forest of the edges (core._tree_order from every vertex in turn), and
    the edges go in order of the place of their later end, then of their
    earlier end, then of their index.  The next edge is the first
    unassigned one with an endpoint where it is the last open edge, else
    the first unassigned one.  Its candidates are the values every such
    endpoint forces, in solve order, that its domain holds; or, with no
    such endpoint, its domain in order, less the values that a part it
    closes rules out (below).  An edge with coefficient 0 at every end (a
    positive loop) changes no boundary, so it is left out of this order
    and takes the first value of its domain once the others are found;
    with an empty domain there is no solution.  A vertex no listed edge
    changes keeps its beta, so a nonzero one there means None.

    The closing rule.  Let K be a component of the open edges (those not
    yet assigned) that is balanced, with a switching s, and let r be the
    residual boundary.  Each open edge e adds s(u) c_u(e) + s(w) c_w(e) = 0
    times its value to the sum S of s(v) r(v) over K, so no assignment
    changes S, and a solution needs S = 0.  When the next edge e has no
    saturated end, and leaves open a balanced component K that holds an
    end of e and with e was not balanced (e joined it to another
    component, or e was its last unbalanced edge), then e's value x must
    solve a x = S, where a, the sum of s(v) c_v(e) over e's ends v in K,
    is +-1 or +-2.  Such a step closes K; it closes at most two.  Its
    candidates are the domain's values, in domain order, that solve
    every such equation, and the walk drops the others without stepping
    into them.  Each value dropped would have led to no solution, so the
    first solution found is the one found without the rule.  A forced
    step is the case where K is the saturated end alone, with a = c_u
    and S = r(u).

    The next edge depends only on which edges are assigned, so the plan
    (`_plan`) is worked out before the search walks it, and a caller that
    searches one graph many times may plan once and walk the plan each
    time.  Each step of the plan has a kind, and a node does only its
    kind's work.  A free step branches on its domain's values, all of which
    the domain holds.  A closing step sums K's residuals by sign and reads
    its one candidate from a row, keeping it if the domain's set holds it
    and it solves a second equation; or, for 2 x = S in a group of even
    order, it keeps the domain's values among the solutions, all of them
    when every element solves it.  A forced step reads its one candidate
    from a row and keeps it if the domain's set holds it; forced at both
    ends, it also needs the second end's residual to come out zero.  A
    saturated end is never read again, so a forced step changes only its
    other end's residual, and a step forced at both ends changes none.
    Each walk pairs the steps with their domains: the values for a free
    step and for 2 x = S, the set for the others.

    When beta is zero, every listed edge's domain is closed under
    negation and the first edge is free, the walk tries on that edge only
    the values x that come no later than -x in its domain: -f is a solution
    whenever f is, so the first solution takes one of them.  (A first edge
    that closes a part has only values with x = -x: there S = 0.)

    budget caps how often the search may branch on an edge that no
    endpoint forces, closing steps included, SEARCH_BUDGET when None; past
    it, the search raises _OverBudget, a DeskScaleError.  The walk
    recurses once per step, so it raises the interpreter's recursion
    limit by the plan's depth while it runs.
    """
    if any(beta[v] for v in plan.bare) or not all(
            domains[e][0] for e in plan.idle):
        return None
    limit = budget = SEARCH_BUDGET if budget is None else budget
    reduce, neg, size = plan.reduce, plan.neg, plan.size
    # a free step, or one solving 2 x = S, takes its domain's values, the
    # others their set
    walk = [step + (domains[step.e][step.kind in _BY_SET],)
            for step in plan.steps]
    # With beta zero and every domain closed under negation, -f is a
    # solution whenever f is.  So the first solution in search order takes,
    # on a free first edge, a value x no later than -x in its domain, and
    # the walk need try no other there.
    if walk and not any(beta) and walk[0][0] == _FREE:
        used = {id(domains[step.e]): domains[step.e] for step in plan.steps}
        if all(neg[x] in ok for _, ok in used.values() for x in ok):
            *head, dom = walk[0]
            rank = {x: i for i, x in enumerate(dom)}
            walk[0] = (*head, [x for x in dom if rank[x] <= rank[neg[x]]])

    residual = list(beta) + [0]
    f: list = [None] * plan.m
    depth = len(walk)

    def dfs(d: int) -> bool:
        nonlocal budget
        if d == depth:
            return True
        kind, e, u, cu, w, cw, row, dom = walk[d]
        rw = residual[w]
        if kind == _FORCED:
            x = row[residual[u]]
            if x not in dom:  # no solution (-1), or one outside the domain
                return False
            residual[w] = reduce[rw + cw[x]]
        elif kind >= _FREE:
            budget -= 1
            if budget < 0:
                raise _OverBudget(f"search budget of {limit} free branchings"
                                  " spent without an answer")
            if kind == _CLOSE:  # the one value every closed part allows
                x = -1
                for part in row:
                    y = part[3][_signed_sum(residual, reduce, neg, part)]
                    if y not in dom or (x >= 0 and x != y):
                        return False
                    x = y
                dom = (x,)
            elif kind == _CLOSE_SPLIT:  # the values x with 2 x = S
                part = row[0]
                solutions = part[3][_signed_sum(residual, reduce, neg, part)]
                if not solutions:
                    return False
                if len(solutions) < size:
                    dom = list(filter(solutions.__contains__, dom))
            ru = residual[u]
            for x in dom:
                residual[u] = reduce[ru + cu[x]]
                residual[w] = reduce[rw + cw[x]]
                if dfs(d + 1):
                    f[e] = x
                    return True
            residual[u] = ru
            residual[w] = rw
            return False
        elif kind == _BOTH:
            x = row[residual[u]]
            if x not in dom or reduce[rw + cw[x]]:
                return False
        else:  # _SPLIT
            for x in row[residual[u]]:
                if x in dom:
                    residual[w] = reduce[rw + cw[x]]
                    if dfs(d + 1):
                        f[e] = x
                        return True
            residual[w] = rw
            return False
        if dfs(d + 1):
            f[e] = x
            return True
        residual[w] = rw
        return False

    frames = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + depth)
    try:
        found = dfs(0)
    finally:
        sys.setrecursionlimit(frames)
    if not found:
        return None
    for e in plan.idle:
        f[e] = domains[e][0][0]
    return f


def integer_flow(g: SignedGraph, edges: Sequence[int],
                 domains: Sequence[Sequence[int]]) -> Optional[list]:
    """Integers f(e) in domains[e], for the edges listed (in increasing
    order), with zero boundary, edges not listed carrying nothing; None if
    there are none.  The list is indexed by edge and holds None for edges
    not listed.

    The search is `_walk`'s on Z_N, for the least odd N above 2 max |d|
    and above each vertex's load, the sum of |c| max |d| over its listed
    edges with coefficient c there.  A domain's residues are distinct and
    keep its order.  A vertex's boundary lies strictly between -N and N,
    so it is zero iff its residue is; and c, +-1 or +-2, is a unit mod N,
    so a forced value is the exact quotient or in no domain.  The walk
    visits the nodes an integer search would, in the same order.
    """
    size = {e: max(map(abs, domains[e]), default=0) for e in edges}
    load = [0] * g.n
    for e in edges:
        for v, c in end_coeffs(g, e).items():
            load[v] += abs(c) * size[e]
    # the least odd number above every load and twice every value
    n = (max(2, *load, *(2 * d for d in size.values())) + 1) | 1
    residues: dict[int, tuple] = {}  # by id of the domain list
    listed: list = [None] * g.m
    for e in edges:
        d = domains[e]
        if id(d) not in residues:
            residues[id(d)] = _domain(x % n for x in d)
        listed[e] = residues[id(d)]
    f = _walk(_plan(g, edges, _group_codes(AbelianGroup((n,)))), listed,
              [0] * g.n)
    return None if f is None else [
        x if x is None or 2 * x < n else x - n for x in f]


def satisfy_boundary(
    g: SignedGraph,
    A: AbelianGroup,
    beta: Sequence[Elem],
    fbar: Optional[Sequence[Elem]] = None,
    allow_zero: bool = False,
) -> Optional[list[Elem]]:
    """Find a nowhere-zero f with boundary beta and f(e) != fbar(e), or None.

    With allow_zero, edges may carry zero (useful when only the avoidance
    of fbar matters, not nowhere-zeroness).

    beta must give an element of A for every vertex, fbar one for every
    edge, and beta must be an A-boundary, a necessary condition for
    solvability; ValueError otherwise.  beta is one when, on each component
    K of g, its sum over K lies in 2A if K is unbalanced, and sum s(v)
    beta(v) over K is 0 if K is balanced, s a switching that makes every
    edge of K positive (Li-Luo-Ma-Zhang, SIAM J. Discrete Math. 2018).
    """
    plan = _plan(g, range(g.m), _group_codes(A))
    _check_boundary_inputs(g, A, beta, fbar, plan)
    return _search_group(plan, A, beta, fbar, allow_zero)


def _check_boundary_inputs(g: SignedGraph, A: AbelianGroup,
                           beta: Sequence[Elem],
                           fbar: Optional[Sequence[Elem]],
                           plan: _Plan) -> None:
    """satisfy_boundary's checks of beta and fbar, the boundary rule read
    off the components of plan, a plan of every edge of g over A."""
    if len(beta) != g.n:
        raise ValueError(f"beta has {len(beta)} entries for {g.n} vertices")
    if fbar is not None and len(fbar) != g.m:
        raise ValueError(f"fbar has {len(fbar)} entries for {g.m} edges")
    for a in itertools.chain(beta, fbar or ()):
        if not A.contains(a):
            raise ValueError(f"{a} is not an element of {A}")
    codes = _group_codes(A)
    values = [codes.code[tuple(b)] for b in beta]
    for part in plan.components:
        s = _signed_sum(values, plan.reduce, plan.neg, part)
        if part[2] and s not in codes.doubled:
            raise ValueError(
                "beta is not an A-boundary: its sum over the unbalanced"
                f" component of vertex {part[3]} is not of the form 2a")
        if not part[2] and s:
            raise ValueError(
                "beta is not an A-boundary: its switched sum over the"
                f" balanced component of vertex {part[3]} is not zero")


def _search_group(plan: _Plan, A: AbelianGroup, beta: Sequence[Elem],
                  fbar: Optional[Sequence[Elem]], allow_zero: bool,
                  budget: Optional[int] = None) -> Optional[list[Elem]]:
    """satisfy_boundary's search on checked inputs, through element codes,
    walking a plan of every edge in A's arithmetic."""
    code, elem = _group_codes(A)[:2]
    domain = _avoiding(A)[allow_zero]
    domains = ([domain[None]] * plan.m if fbar is None
               else [domain[code[tuple(x)]] for x in fbar])
    f = _walk(plan, domains, [code[tuple(b)] for b in beta], budget)
    return None if f is None else [elem[x] for x in f]


def has_nz_A_flow(g: SignedGraph, A: AbelianGroup,
                  fbar: Optional[Sequence[Elem]] = None) -> Optional[list[Elem]]:
    return satisfy_boundary(g, A, [A.zero] * g.n, fbar=fbar)


def has_nz_k_flow(g: SignedGraph, k: int) -> Optional[list[int]]:
    """Integer flow with values in {-(k-1),...,-1,1,...,k-1}; None if no
    such flow exists.  For k < 2 that set is empty, so only a graph with no
    edges has one, the empty map."""
    domain = [x for x in range(-(k - 1), k) if x != 0]
    return integer_flow(g, range(g.m), [domain] * g.m)


class ConnectivityVerdict:
    def __init__(self, status: str,
                 witness_beta: Optional[list[Elem]] = None,
                 witness_fbar: Optional[list[Elem]] = None,
                 checked: int = 0):
        self.status = status  # "yes", "no", "sampled-yes"
        self.witness_beta = witness_beta
        self.witness_fbar = witness_fbar
        self.checked = checked


def _free_vertices(plan: _Plan, n: int) -> list[int]:
    """The vertices an A-boundary takes any value at: all of the n but
    the last vertex of each component."""
    last = {part[3] for part in plan.components}
    return [v for v in range(n) if v not in last]


def _complete(plan: _Plan, beta: list[int], targets: Sequence[int]) -> None:
    """Solve beta, as codes, at each component's last vertex, from its
    values at the other vertices: so that its signed sum over the
    component (`_Plan.components`) is that component's entry of targets,
    in component order."""
    reduce, neg = plan.reduce, plan.neg
    for part, target in zip(plan.components, targets):
        t = part[3]
        beta[t] = 0  # so that the sum reads the other vertices alone
        beta[t] = reduce[target + neg[_signed_sum(beta, reduce, neg, part)]]


def _draw_into(getrandbits, seq: Sequence[int], out: list[int],
               places: Sequence[int]) -> None:
    """Set out[i], for each i of places in turn, to the element of seq
    that `random.Random.choice(seq)` draws on the stream of getrandbits: a
    try of k = len(seq).bit_length() bits, repeated while it reads
    len(seq) or more (`_randbelow` on CPython 3.10 to 3.13), without
    choice's two Python frames per draw."""
    n = len(seq)
    k = n.bit_length()
    for i in places:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out[i] = seq[r]


def _all_boundaries(plan: _Plan, codes: _GroupCodes, n: int):
    """Every A-boundary of the graph of plan, on n vertices, as codes,
    zero boundary first: the free vertices (`_free_vertices`) take every
    element, in lexicographic order of their values in vertex order; for
    each, every unbalanced component's sum takes every element of 2A in
    element order, the last component's fastest, and each component's last
    vertex is solved for (`_complete`).  On a connected unbalanced graph,
    vertices 0 to n - 2 take every element and the sum every element of
    2A."""
    free = _free_vertices(plan, n)
    sums = [codes.doubled if part[2] else (0,) for part in plan.components]
    beta = [0] * n
    for head in itertools.product(codes.code.values(), repeat=len(free)):
        for v, x in zip(free, head):
            beta[v] = x
        for targets in itertools.product(*sums):
            _complete(plan, beta, targets)
            yield list(beta)


def _digit_places(g: SignedGraph) -> list[int]:
    """Each vertex's digit in the sweep's bitset, 0 most significant: the
    vertices by degree, the busiest last, ties in index order (so a
    regular graph keeps its numbering)."""
    degree = g.degrees()
    place = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=lambda v: (degree[v], v))):
        place[v] = i
    return place


def _reachable_boundaries(g: SignedGraph, A: AbelianGroup,
                          place: Sequence[int]) -> int:
    """The boundaries of every nowhere-zero map, as a bitset over A^n.

    The bit of a vertex map beta is its mixed-radix code: one digit per
    vertex, vertex v's at place[v] (`_digit_places`, place 0 most
    significant), each digit the lexicographic rank of beta(v), itself
    made of the element's factor digits.  Adding a value a to edge e adds
    c_v a at each endpoint v, where c_v is its coefficient there
    (`end_coeffs`), which rolls every factor digit of v.  Starting from the
    zero map, each edge replaces the set with the union of its copies
    rolled by every nonzero a.  Edges go in decreasing order of the lower
    place of their ends, so the set stays within the digits of the
    vertices seen so far, and its masks need span no more.  The busiest
    vertices take the last places, so most edges roll a short set.
    """
    order, factors = A.order, A.factors
    inner = [1] * len(factors)  # stride of factor i within one element
    for i in range(len(factors) - 2, -1, -1):
        inner[i] = inner[i + 1] * factors[i + 1]
    size = 1  # bits in use: vertices placed below the lowest end seen hold 0

    def mask(stride: int, q: int, r: int) -> int:
        """Positions whose digit of this stride and order q is below q - r;
        built by doubling one period (division would be quadratic)."""
        x, length = (1 << (q - r) * stride) - 1, q * stride
        while length < size:
            x |= x << length
            length *= 2
        return x & ((1 << size) - 1)

    def spread(x: int, steps: list, i: int, nonzero: bool) -> int:
        """Union of the copies of x rolled by every value whose factor
        digits before i are already applied (nonzero: one of them is not
        zero), steps[i] being the rolls that add one unit of factor i."""
        if i == len(factors):
            return x if nonzero else 0
        out = 0
        for k in range(factors[i]):
            if k:
                for m, up, down in steps[i]:
                    low = x & m
                    x = (low << up) | ((x ^ low) >> down)
            out |= spread(x, steps, i + 1, nonzero or k > 0)
        return out

    def lower(e: int) -> int:
        return min(place[v] for v in g.ends(e))

    reach = 1  # the zero map
    for e in sorted(range(g.m), key=lambda e: -lower(e)):
        size = max(size, order ** (g.n - lower(e)))
        coeff = end_coeffs(g, e)
        steps = []
        for i, q in enumerate(factors):
            rolls = []
            for v, c in coeff.items():
                r = c % q
                if r:
                    s = order ** (g.n - 1 - place[v]) * inner[i]
                    rolls.append((mask(s, q, r), r * s, (q - r) * s))
            steps.append(rolls)
        reach = spread(reach, steps, 0, False)
    return reach


def is_A_connected(
    g: SignedGraph,
    A: AbelianGroup,
    samples: Optional[int] = None,
    seed: int = 0,
) -> ConnectivityVerdict:
    """Exact mode (samples=None): whether nowhere-zero maps reach every
    A-boundary (no forbidden map): one budgeted search for a nowhere-zero
    flow and, if it finds one or runs past its budget, one sweep over the
    reachable boundaries.  "no" names the first boundary missed in
    `_all_boundaries` order (the zero map when no flow exists) and counts
    the boundaries up to it.  Sampling mode (samples at least 1): seeded
    random (beta, fbar) pairs, valid by construction (values from A at
    the free vertices, then a sum from 2A per unbalanced component, each
    component's last vertex solved for, as `_all_boundaries` orders them),
    verdict "sampled-yes" if none fails.  The draws are those
    `random.Random(seed).choice` makes over the elements in order, so a
    seed gives the same verdict on Python 3.10 to 3.13.
    """
    if samples is None:
        work = (g.m + 1) * A.order ** g.n
        if work > SWEEP_BUDGET:
            raise DeskScaleError(
                f"exact sweep needs (edges + 1) |A|^n = {work} bit-edges,"
                f" past its sweep budget of {SWEEP_BUDGET}")
    elif samples < 1:
        raise ValueError(f"sampling mode needs at least 1 sample, not {samples}")
    if g.n == 0:
        raise ValueError("a graph with no vertices has no boundaries")
    # every search below is of all of g: plan once
    codes = _group_codes(A)
    plan = _plan(g, range(g.m), codes)
    if samples is None:
        # The zero boundary comes first in _all_boundaries order, so one
        # search for a nowhere-zero flow can settle a "no" before the sweep.
        # A free branching costs 2-5 us and the sweep about 10 ns per
        # vertex map (n = 8, Z6 and Z9), so the search may branch once per
        # 2^10 maps: at worst it costs about half what the sweep does.
        zero = [A.zero] * g.n
        try:
            if _search_group(plan, A, zero, None, False,
                             budget=A.order ** g.n >> 10) is None:
                return ConnectivityVerdict("no", witness_beta=zero, checked=1)
        except _OverBudget:
            pass
        place = _digit_places(g)
        reach = _reachable_boundaries(g, A, place)
        # every boundary is an A-boundary, so reach holds no other map
        unbalanced = sum(part[2] for part in plan.components)
        total = (A.order ** (g.n - len(plan.components))
                 * len(codes.doubled) ** unbalanced)
        if reach.bit_count() == total:
            return ConnectivityVerdict("yes", checked=total)
        rank = {x: i for i, x in enumerate(codes.code.values())}
        stride = [A.order ** (g.n - 1 - p) for p in place]
        bits = reach.to_bytes((A.order ** g.n + 7) // 8, "little")
        count = 0
        for beta in _all_boundaries(plan, codes, g.n):
            count += 1
            code = sum(rank[b] * s for b, s in zip(beta, stride))
            if not bits[code >> 3] >> (code & 7) & 1:
                return ConnectivityVerdict(
                    "no", witness_beta=[codes.elem[b] for b in beta],
                    checked=count)
        raise AssertionError("reachable boundaries miss one, but no boundary"
                             " is missing")
    # Each pair is drawn as codes, which follow the order of the elements,
    # so the stream picks what it would pick from the sorted elements.
    bits = random.Random(seed).getrandbits
    every = tuple(codes.code.values())
    avoid = _avoiding(A)[False]
    free = _free_vertices(plan, g.n)
    # a balanced component's target sum stays 0; an unbalanced one draws
    drawn = [j for j, part in enumerate(plan.components) if part[2]]
    beta, targets, fbar = [0] * g.n, [0] * len(plan.components), [0] * g.m
    for i in range(samples):
        _draw_into(bits, every, beta, free)
        _draw_into(bits, codes.doubled, targets, drawn)
        _complete(plan, beta, targets)
        _draw_into(bits, every, fbar, range(g.m))
        if _walk(plan, [avoid[x] for x in fbar], beta) is None:
            elem = codes.elem
            return ConnectivityVerdict("no",
                                       witness_beta=[elem[x] for x in beta],
                                       witness_fbar=[elem[x] for x in fbar],
                                       checked=i + 1)
    return ConnectivityVerdict("sampled-yes", checked=samples)
